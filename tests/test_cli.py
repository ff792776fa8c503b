import json
import os

import pytest

from hwassure.cli import build_parser, cmd_attack, main, stable_digest
from hwassure.locking import load_locked
from hwassure.netlist import load_bench
from hwassure.psc_estimation import DB_INDEX_HEADER
from hwassure.sat_estimation import DATASET_CSV_HEADER


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_lock_roundtrip(tmp_path):
    out = str(tmp_path / "locked.bench")
    code = main(["lock", "--bench", "pkg:c17", "--key-length", "4",
                 "--seed", "3", "--out", out])
    assert code == 0
    locked = load_locked(out)
    assert len(locked.key_inputs) == 4
    assert locked.correct_key.bits is not None
    assert sorted(locked.key_inputs) == [f"keyinput{i}" for i in range(4)]


def test_frame_and_compose(tmp_path):
    framed = str(tmp_path / "framed.bench")
    assert main(["frame", "--bench", "pkg:s298", "--out", framed]) == 0
    fc = load_bench(framed)
    assert not fc.flip_flops

    composed = str(tmp_path / "composed.bench")
    assert main(["compose", "--bench", "pkg:s298", "--cr", "2", "--out", composed]) == 0
    cc = load_bench(composed)
    assert not cc.flip_flops
    assert any(pi.startswith("si_") for pi in cc.primary_inputs)


def test_compose_rejects_combinational(tmp_path, capsys):
    code = main(["compose", "--bench", "pkg:c17", "--cr", "2",
                 "--out", str(tmp_path / "x.bench")])
    assert code == 2
    assert "combinational" in capsys.readouterr().err


def test_attack_single_record(tmp_path):
    out = str(tmp_path / "rec.json")
    code = main(["attack", "--bench", "pkg:c17", "--key-length", "4",
                 "--seed", "1", "--out", out])
    assert code == 0
    rec = read_json(out)
    assert rec["kind"] == "sat-attack"
    assert rec["status"] == "success"
    assert rec["verified"] is True
    assert rec["instance"]["num_pi"] == 5
    # replay is identical apart from wall-clock
    out2 = str(tmp_path / "rec2.json")
    main(["attack", "--bench", "pkg:c17", "--key-length", "4",
          "--seed", "1", "--out", out2])
    a, b = read_json(out), read_json(out2)
    a.pop("elapsed_s"), b.pop("elapsed_s")
    assert a == b


def test_attack_requires_inputs(capsys):
    assert main(["attack", "--bench", "pkg:c17"]) == 2


def test_attack_batch_grid(tmp_path):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "benches": ["pkg:c17"],
        "key_lengths": [4],
        "crs": [1, 2],
        "seeds": [0],
        "timeout_s": 120.0,
    }))
    out_dir = str(tmp_path / "runs")
    assert main(["attack", "--config", str(config), "--out", out_dir]) == 0
    names = sorted(os.listdir(out_dir))
    assert names == [
        "attack_c17_k4_cr1_s0.json",
        "attack_c17_k4_cr2_s0.json",
        "measurements.csv",
        "rollup.csv",
    ]
    rollup = (tmp_path / "runs" / "rollup.csv").read_text().strip().split("\n")
    assert rollup[0] == "design,key_length,cr,seed,iterations,status,verified,elapsed_s"
    assert len(rollup) == 3
    meas = (tmp_path / "runs" / "measurements.csv").read_text().strip().split("\n")
    assert len(meas) == 3


def test_attack_batch_invalid_config(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"benches": [], "key_lengths": [4],
                                  "crs": [1], "seeds": [0]}))
    assert main(["attack", "--config", str(config), "--out", str(tmp_path)]) == 2


def test_attack_batch_partial_failure(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "benches": ["pkg:c17"],
        "key_lengths": [4],
        "crs": [1],
        "seeds": [0],
        "max_iterations": 1,
    }))
    out_dir = str(tmp_path / "runs")
    assert main(["attack", "--config", str(config), "--out", out_dir]) == 1
    assert "failed" in capsys.readouterr().err


def test_attack_batch_survives_a_bad_cell(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "benches": ["pkg:c17"],
        "key_lengths": [4, 99],
        "crs": [1],
        "seeds": [0],
    }))
    out_dir = tmp_path / "runs"
    assert main(["attack", "--config", str(config), "--out", str(out_dir)]) == 1
    assert sorted(os.listdir(out_dir)) == [
        "attack_c17_k4_cr1_s0.json",
        "attack_c17_k99_cr1_s0.json",
        "measurements.csv",
        "rollup.csv",
    ]
    bad = read_json(str(out_dir / "attack_c17_k99_cr1_s0.json"))
    assert bad["status"] == "error"
    assert "99 key gates" in bad["message"]
    assert read_json(str(out_dir / "attack_c17_k4_cr1_s0.json"))["status"] == "success"
    rollup = (out_dir / "rollup.csv").read_text().splitlines()
    assert len(rollup) == 3
    assert rollup[2] == "c17,99,1,0,,error,,"
    assert len((out_dir / "measurements.csv").read_text().splitlines()) == 2
    assert "status=error" in capsys.readouterr().err


def test_sat_fit_and_estimate(tmp_path):
    from hwassure.cli import _demo_measurement_records
    from hwassure.sat_estimation import records_to_csv

    csv_path = tmp_path / "meas.csv"
    csv_path.write_text(records_to_csv(_demo_measurement_records()))
    model_path = str(tmp_path / "model.json")
    assert main(["sat-fit", "--csv", str(csv_path), "--out", model_path]) == 0
    est_path = str(tmp_path / "est.json")
    code = main(["sat-estimate", "--model", model_path, "--bench", "pkg:rs220",
                 "--key-length", "4", "--cr", "16", "--ip-seconds", "2.0",
                 "--out", est_path])
    assert code == 0
    rec = read_json(est_path)
    assert rec["kind"] == "sat-estimate"
    assert rec["estimated_seconds"] > 0


def test_sat_fit_bad_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n1\n")
    assert main(["sat-fit", "--csv", str(bad), "--out", str(tmp_path / "m.json")]) == 2


def test_psc_pipeline(tmp_path):
    db_dir = str(tmp_path / "db")
    assert main(["psc-db", "--benches", "pkg:s1488,pkg:s832", "--windows", "100",
                 "--seed", "5", "--out", db_dir]) == 0
    assert sorted(os.listdir(db_dir)) == ["index.csv", "s1488.csv", "s832.csv"]

    subsystem = tmp_path / "subsystem.json"
    subsystem.write_text(json.dumps({
        "aes": {"enabled": True},
        "noise_ips": [
            {"bench": "pkg:s1488", "seed": 5},
            {"bench": "pkg:s832", "seed": 6},
        ],
        "granularity": "per-encryption",
    }))
    psc_dir = str(tmp_path / "psc")
    assert main(["psc-measure", "--config", str(subsystem), "--plaintexts", "100",
                 "--seed", "2", "--out", psc_dir]) == 0
    measure = read_json(os.path.join(psc_dir, "measure.json"))
    assert measure["kind"] == "psc-measure"
    assert 0.0 <= measure["js"] <= 1.0
    assert measure["blocks"] == ["aes", "s1488", "s832"]
    matrix = (tmp_path / "psc" / "js_matrix.csv").read_text().strip().split("\n")
    assert matrix[0] == "cycle,subsystem,aes,s1488,s832"
    assert len(matrix) == 12

    est_path = str(tmp_path / "psc" / "estimate.json")
    assert main(["psc-estimate", "--config", str(subsystem), "--db", db_dir,
                 "--plaintexts", "100", "--seed", "2", "--out", est_path]) == 0
    est = read_json(est_path)
    assert est["mapped"] == ["s1488", "s832"]
    # db seeds line up with the subsystem seeds, so estimation replays
    # the measured noise exactly
    assert abs(est["js"] - measure["js"]) <= 0.02


def test_psc_measure_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"noise_ips\": [{\"bench\": \"pkg:absent\"}]}")
    assert main(["psc-measure", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_metrics_commands(tmp_path):
    scoap_path = str(tmp_path / "scoap.json")
    assert main(["metrics", "scoap", "--bench", "pkg:c17", "--out", scoap_path]) == 0
    scoap = read_json(scoap_path)
    assert scoap["controllability"]["1"] == 1.0
    assert scoap["observability"]["22"] == 1.0

    oh_path = str(tmp_path / "oh.json")
    assert main(["metrics", "oh", "--bench", "pkg:c17", "--node", "22",
                 "--out", oh_path]) == 0
    assert read_json(oh_path)["value"] == 0.8

    fsm_path = tmp_path / "fsm.csv"
    fsm_path.write_text(
        "from,to,vulnerable,pv,po,p_fs\ns0,s1,1,5,3,2;4\ns1,s0,0,,,\n"
        "s2,s3,0,,,\ns3,s2,0,,,\n"
    )
    fsm_out = str(tmp_path / "fsm.json")
    assert main(["metrics", "fsm-fi", "--csv", str(fsm_path), "--out", fsm_out]) == 0
    assert read_json(fsm_out)["value"] == 25.0

    resp_path = tmp_path / "resp.txt"
    resp_path.write_text("00\n01\n11\n")
    puf_out = str(tmp_path / "puf.json")
    assert main(["metrics", "puf", "--responses", str(resp_path), "--out", puf_out]) == 0
    assert abs(read_json(puf_out)["value"] - 200 / 3) < 1e-9

    intra_path = tmp_path / "intra.txt"
    intra_path.write_text("00000000\n00000001\n")
    intra_out = str(tmp_path / "intra.json")
    assert main(["metrics", "puf", "--responses", str(intra_path), "--intra",
                 "--out", intra_out]) == 0
    assert read_json(intra_out)["value"] == 12.5

    cdc_path = tmp_path / "defects.csv"
    cdc_path.write_text("confidence,frequency\n0.8,3\n0.5,1\n")
    cdc_out = str(tmp_path / "cdc.json")
    assert main(["metrics", "cdc", "--csv", str(cdc_path), "--out", cdc_out]) == 0
    assert abs(read_json(cdc_out)["value"] - 72.5) < 1e-9



@pytest.mark.parametrize(
    "argv, missing",
    [
        (["metrics", "scoap"], "--bench"),
        (["metrics", "oh"], "--bench, --node"),
        (["metrics", "oh", "--bench", "pkg:c17"], "--node"),
        (["metrics", "fsm-fi"], "--csv"),
        (["metrics", "puf"], "--responses"),
        (["metrics", "cdc"], "--csv"),
    ],
)
def test_metrics_missing_input_is_a_usage_error(argv, missing, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, flag",
    [
        ("timeout_s", -1, "--timeout-s"),
        ("timeout_s", 0, "--timeout-s"),
        ("max_iterations", -1, "--max-iterations"),
        ("max_iterations", 0, "--max-iterations"),
        ("channels", 0, "--channels"),
    ],
)
@pytest.mark.parametrize("mode", ["grid", "single"])
def test_out_of_range_attack_limit_exits_2_naming_the_field(
    mode, field, value, flag, tmp_path, capsys
):
    out = tmp_path / "out"
    if mode == "grid":
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"benches": ["pkg:c17"], "key_lengths": [2],
                                      "crs": [1], "seeds": [0], field: value}))
        argv = ["attack", "--config", str(config), "--out", str(out)]
    else:
        argv = ["attack", "--bench", "pkg:c17", "--key-length", "2", flag, str(value),
                "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(field) in err
    assert not out.exists()


@pytest.mark.parametrize("cr", [-1, 0])
@pytest.mark.parametrize("mode", ["grid", "single"])
def test_compression_ratio_below_1_exits_2_before_any_attack(mode, cr, tmp_path, capsys):
    # c17 is combinational, so no scan topology is built that would check the CR
    out = tmp_path / "out"
    if mode == "grid":
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"benches": ["pkg:c17"], "key_lengths": [2],
                                      "crs": [1, cr], "seeds": [0]}))
        argv = ["attack", "--config", str(config), "--out", str(out)]
    else:
        argv = ["attack", "--bench", "pkg:c17", "--key-length", "2", "--cr", str(cr),
                "--seed", "0", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'cr'" in err
    assert not out.exists()


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_1_exits_2_before_any_attack(workers, tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"benches": ["pkg:c17"], "key_lengths": [2],
                                  "crs": [1], "seeds": [0]}))
    out = tmp_path / "out"
    args = build_parser().parse_args(
        ["attack", "--config", str(config), "--workers", str(workers), "--out", str(out)]
    )
    with pytest.raises(ValueError, match="--workers must be at least 1"):
        cmd_attack(args)
    assert main(["attack", "--bench", "pkg:c17", "--key-length", "2",
                 "--workers", str(workers), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.fixture
def malformed_inputs(tmp_path_factory):
    """Inputs of the wrong JSON shape, kept outside ``tmp_path`` so that a
    test can assert that nothing was written there."""
    root = tmp_path_factory.mktemp("malformed")
    grid = {"benches": ["pkg:c17"], "key_lengths": [2], "crs": [1], "seeds": [0]}
    for name, payload in (
        ("noise_ips.json", {"noise_ips": [1]}),
        ("aes.json", {"aes": True}),
        ("scheduler.json", {"scheduler": 5}),
        ("noise_seed.json", {"noise_ips": [{"bench": "pkg:s298", "seed": None}]}),
        ("aes_enabled.json", {"aes": {"enabled": "no"}}),
        ("grid.json", dict(grid, key_lengths=[None])),
        ("grid_timeout.json", dict(grid, timeout_s=None)),
        ("grid_channels.json", dict(grid, channels=None)),
        ("grid_iterations.json", dict(grid, max_iterations="x")),
        ("grid_solver.json", dict(grid, solver="nope")),
        ("records/list.json", [1]),
        ("psc.json", {}),
        ("model_sub_models.json", {"sub_models": 5, "feature_scales": [1, 1, 1, 1, 1]}),
        ("model_list.json", [1]),
    ):
        (root / name).parent.mkdir(exist_ok=True)
        (root / name).write_text(json.dumps(payload))
    # tables with a row that is one or more cells short, or one too long
    for name, text in (
        ("empty.txt", ""),
        ("cdc_short.csv", "confidence,frequency\n0.5\n"),
        ("cdc_long.csv", "confidence,frequency\n0.5,1,9\n"),
        ("fsm_short.csv", "from,to,vulnerable,pv,po,p_fs\ns0,s1,1\n"),
        ("fsm_vulnerable_word.csv", "from,to,vulnerable,pv,po,p_fs\ns0,s1,yes,5,3,2;4\ns1,s0,0,,,\n"),
        ("records_short.csv", DATASET_CSV_HEADER + "\nc17,4,6\n"),
        ("db/index.csv", DB_INDEX_HEADER + "\nc17,5,2,0\n"),
        ("db_sample/index.csv", DB_INDEX_HEADER + "\ns298,3,6,14,44,75,31,9,16,19,0\n"),
        ("db_sample/s298.csv", "toggles\n5\nx7\n"),
    ):
        (root / name).parent.mkdir(exist_ok=True)
        (root / name).write_text(text)
    return root


@pytest.mark.parametrize(
    "argv",
    [
        ["metrics", "oh", "--bench", "pkg:c17", "--node", "zz"],
        ["attack", "--bench", "pkg:nope", "--key-length", "4"],
        ["lock", "--bench", "pkg:c17", "--key-length", "99", "--out", "{tmp}/x.bench"],
        ["frame", "--bench", "{tmp}/missing.bench", "--out", "{tmp}/y.bench"],
        ["metrics", "cdc", "--csv", "{tmp}/missing.csv"],
        ["psc-measure", "--config", "{bad}/noise_ips.json", "--out", "{tmp}/psc"],
        ["psc-measure", "--config", "{bad}/aes.json", "--out", "{tmp}/psc"],
        ["psc-measure", "--config", "{bad}/scheduler.json", "--out", "{tmp}/psc"],
        ["psc-measure", "--config", "{bad}/noise_seed.json", "--out", "{tmp}/psc"],
        ["psc-measure", "--config", "{bad}/aes_enabled.json", "--out", "{tmp}/psc"],
        ["attack", "--config", "{bad}/grid.json", "--out", "{tmp}/runs"],
        ["attack", "--config", "{bad}/grid_timeout.json", "--out", "{tmp}/runs"],
        ["attack", "--config", "{bad}/grid_channels.json", "--out", "{tmp}/runs"],
        ["attack", "--config", "{bad}/grid_iterations.json", "--out", "{tmp}/runs"],
        ["attack", "--config", "{bad}/grid_solver.json", "--out", "{tmp}/runs"],
        ["report", "--kind", "sat", "--records", "{bad}/records", "--out", "{tmp}/r.csv"],
        ["metrics", "puf", "--responses", "{bad}/empty.txt", "--intra"],
        ["metrics", "cdc", "--csv", "{bad}/cdc_short.csv"],
        ["metrics", "cdc", "--csv", "{bad}/cdc_long.csv"],
        ["metrics", "fsm-fi", "--csv", "{bad}/fsm_short.csv"],
        ["metrics", "fsm-fi", "--csv", "{bad}/fsm_vulnerable_word.csv"],
        ["sat-fit", "--csv", "{bad}/records_short.csv", "--out", "{tmp}/model.json"],
        ["psc-estimate", "--config", "{bad}/psc.json", "--db", "{bad}/db"],
        ["psc-estimate", "--config", "{bad}/psc.json", "--db", "{bad}/db_sample"],
        ["sat-estimate", "--model", "{bad}/model_sub_models.json", "--bench", "pkg:c17",
         "--key-length", "2", "--cr", "1", "--ip-seconds", "1"],
        ["sat-estimate", "--model", "{bad}/model_list.json", "--bench", "pkg:c17",
         "--key-length", "2", "--cr", "1", "--ip-seconds", "1"],
    ],
    ids=["unknown-node", "unknown-pkg", "oversized-key", "missing-bench", "missing-csv",
         "noise-ip-not-object", "aes-not-object", "scheduler-not-rows", "null-noise-seed",
         "aes-enabled-not-bool", "null-key-length", "null-timeout", "null-channels",
         "string-max-iterations", "unknown-solver", "record-not-object",
         "empty-puf-responses", "short-defect-row", "long-defect-row", "short-fsm-row",
         "unknown-vulnerable-flag",
         "short-dataset-row", "short-profile-index-row", "bad-profile-sample",
         "model-sub-models-not-list",
         "model-not-object"],
)
def test_library_input_error_exits_2_with_one_error_line(
    argv, tmp_path, capsys, malformed_inputs
):
    code = main([a.format(tmp=tmp_path, bad=malformed_inputs) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv, table, message",
    [
        (["metrics", "cdc"], "confidence,frequency\nx,2\n", "defect line 2, column 'confidence'"),
        (["sat-fit", "--out", "{tmp}/model.json"],
         DATASET_CSV_HEADER + "\nc17,x,6,5,2,0,1,0.1,3\n", "dataset line 2, column 'key_length'"),
        (["metrics", "fsm-fi"],
         "from,to,vulnerable,pv,po,p_fs\ns0,s1,1,a,3,2;4\ns1,s0,0,,,\n", "FSM line 2, column 'pv'"),
    ],
    ids=["defect-confidence", "dataset-key-length", "fsm-delay"],
)
def test_bad_table_cell_error_names_table_line_and_column(
    argv, table, message, tmp_path, tmp_path_factory, capsys
):
    path = tmp_path_factory.mktemp("tables") / "table.csv"
    path.write_text(table)
    code = main([a.format(tmp=tmp_path) for a in argv] + ["--csv", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {message}: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_report_empty_and_sorted(tmp_path):
    records = tmp_path / "records"
    records.mkdir()
    out = str(tmp_path / "report.csv")
    assert main(["report", "--kind", "sat", "--records", str(records),
                 "--out", out]) == 0
    assert (tmp_path / "report.csv").read_text() == (
        "design,key_length,cr,seed,iterations,status,verified,elapsed_s\n"
    )
    for i, cr in enumerate([4, 1, 2]):
        rec = {"kind": "sat-attack", "design": "c17", "key_length": 4, "cr": cr,
               "seed": 0, "iterations": 3, "status": "success", "verified": True,
               "elapsed_s": 0.1 * (i + 1)}
        (records / f"r{i}.json").write_text(json.dumps(rec))
    assert main(["report", "--kind", "sat", "--records", str(records),
                 "--out", out]) == 0
    lines = (tmp_path / "report.csv").read_text().strip().split("\n")
    assert [line.split(",")[2] for line in lines[1:]] == ["1", "2", "4"]


def test_report_rejects_mixed_kinds(tmp_path, capsys):
    records = tmp_path / "records"
    records.mkdir()
    (records / "a.json").write_text(json.dumps(
        {"kind": "sat-attack", "design": "x", "key_length": 1, "cr": 1,
         "iterations": 1, "status": "success", "verified": True, "elapsed_s": 0.1}))
    (records / "b.json").write_text(json.dumps(
        {"kind": "metric", "metric": "cdc", "value": 1.0}))
    assert main(["report", "--kind", "sat", "--records", str(records),
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert main(["report", "--kind", "psc", "--records", str(records),
                 "--out", str(tmp_path / "r.csv")]) == 2


def test_stable_digest_ignores_wall_clock(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d, elapsed in ((a, 0.5), (b, 99.9)):
        d.mkdir()
        (d / "rec.json").write_text(json.dumps(
            {"value": 1, "elapsed_s": elapsed, "nested": {"elapsed_s": elapsed}}))
        (d / "table.csv").write_text(
            f"design,iterations,elapsed_s\nc17,3,{elapsed}\n")
    assert stable_digest(str(a)) == stable_digest(str(b))
    (b / "rec.json").write_text(json.dumps({"value": 2, "elapsed_s": 0.5}))
    assert stable_digest(str(a)) != stable_digest(str(b))
