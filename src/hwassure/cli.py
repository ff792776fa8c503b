"""Command-line workbench: locking, attacks, power profiling, metrics.

Every subcommand reads explicit inputs (bench references, config files,
seeds) and writes JSON records plus CSV roll-ups. Wall-clock timings are
confined to fields/columns named ``elapsed_s`` so reports can be
compared byte for byte across machines; ``stable_digest`` implements
exactly that comparison.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from .assurance_metrics import (
    cdc,
    controllability,
    defects_from_csv,
    fsm_fi_vulnerability,
    fsm_from_csv,
    hex_to_bits,
    observability,
    observation_hardness,
    puf_inter_hd,
    puf_intra_hd,
)
from .bundled import load_bench_ref
from .locking import insert_random_locking, save_locked
from .netlist import Circuit, CircuitMetadata, extract_metadata, save_bench
from .platform_model import ScanTopology, compose_platform_frame, frame
from .powersim import (
    PER_CYCLE,
    PER_ENCRYPTION,
    SubsystemConfig,
    SwitchingProfile,
    load_subsystem_config_file,
    profiles_to_csv,
)
from .psc_estimation import (
    build_profile_db,
    estimate_subsystem_score,
    load_profile_db,
    map_config_blocks,
    save_profile_db,
    simulate_key_pair,
)
from .pscmetrics import (
    compare_profiles,
    js_matrix_csv,
    per_cycle_js_matrix,
    security_score,
)
from .sat_estimation import (
    ExperimentRecord,
    build_model,
    estimate_attack_time,
    load_model,
    metadata_from_dict,
    metadata_to_dict,
    records_from_csv,
    records_to_csv,
    save_model,
)
from .satattack import attack_report, build_platform_instance, make_solver, sat_attack

WALL_CLOCK_FIELD = "elapsed_s"

Record = Dict[str, object]


def _out_root(value: Optional[str]) -> str:
    return value or os.environ.get("HWASSURE_OUT") or "."


def _ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


def _write_json(path: str, obj: object) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(record: Record, out: Optional[str], name: Optional[str]) -> None:
    """Print the record. A command that names a record file also writes it
    to ``--out``, or into the directory ``--out`` names as ``name``, which
    is filled in from the record's fields."""
    text = json.dumps(record, indent=2, sort_keys=True)
    print(text)
    if out and name:
        # Accept a directory target; batch commands already treat --out that way.
        if out.endswith(os.sep) or os.path.isdir(out):
            _ensure_dir(out)
            out = os.path.join(out, name.format(**record))
        _ensure_dir(os.path.dirname(out) or ".")
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _scrub_wall_clock(obj: object) -> object:
    if isinstance(obj, dict):
        return {
            k: _scrub_wall_clock(v) for k, v in obj.items() if k != WALL_CLOCK_FIELD
        }
    if isinstance(obj, list):
        return [_scrub_wall_clock(v) for v in obj]
    return obj


def _csv_without_wall_clock(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return text
    keep = [i for i, name in enumerate(rows[0]) if name != WALL_CLOCK_FIELD]
    if len(keep) == len(rows[0]):
        return text
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow([row[i] for i in keep if i < len(row)])
    return out.getvalue()


def stable_digest(directory: str) -> str:
    """SHA-256 over every artifact with wall-clock fields removed.

    JSON files lose every ``elapsed_s`` key, CSV files lose the
    ``elapsed_s`` column, and ``digest.txt`` itself is skipped, so two
    runs of the same experiment hash identically.
    """
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            if name == "digest.txt":
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, directory)
            digest.update(rel.encode())
            if name.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    obj = _scrub_wall_clock(json.load(fh))
                digest.update(json.dumps(obj, sort_keys=True).encode())
            elif name.endswith(".csv"):
                with open(path, encoding="utf-8") as fh:
                    digest.update(_csv_without_wall_clock(fh.read()).encode())
            else:
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def cmd_lock(args) -> Record:
    circuit = load_bench_ref(args.bench)
    locked = insert_random_locking(circuit, args.key_length, seed=args.seed)
    key_path = save_locked(locked, args.out, args.key_out)
    return {
        "kind": "lock",
        "design": circuit.name,
        "locked_design": locked.core.name,
        "key_length": args.key_length,
        "seed": args.seed,
        "bench": args.out,
        "key_file": key_path,
    }


def cmd_frame(args) -> Record:
    circuit = load_bench_ref(args.bench)
    fm = frame(circuit)
    save_bench(fm.frame, args.out)
    return {
        "kind": "frame",
        "design": circuit.name,
        "ff_count": fm.ff_count,
        "bench": args.out,
    }


def cmd_compose(args) -> Record:
    circuit = load_bench_ref(args.bench)
    if not circuit.flip_flops:
        raise ValueError("design is combinational; nothing to compose")
    topology = ScanTopology.for_ff_count(
        len(circuit.flip_flops), args.cr, args.channels
    )
    composed = compose_platform_frame(frame(circuit), topology)
    save_bench(composed, args.out)
    return {
        "kind": "compose",
        "design": circuit.name,
        "cr": args.cr,
        "channels": args.channels,
        "chains": topology.num_chains,
        "chain_length": topology.chain_length,
        "bench": args.out,
    }


def _locked_metadata(circuit: Circuit, key_length: int, seed: int) -> CircuitMetadata:
    """Interface metadata of the IP locked with ``seed``; the key inputs do
    not count as primary inputs."""
    locked = insert_random_locking(circuit, key_length, seed=seed)
    return extract_metadata(locked.core, key_length=key_length, exclude_inputs=locked.key_inputs)


def _attack_record(circuit: Circuit, job: Record) -> Record:
    key_length, cr, seed = job["key_length"], job["cr"], job["seed"]
    locked, oracle, _ = build_platform_instance(
        circuit, key_length, cr, seed, external_channels=job["channels"]
    )
    result = sat_attack(
        locked,
        oracle,
        time_limit_s=job["timeout_s"],
        max_iterations=job["max_iterations"],
        solver=job["solver"],
    )
    record = attack_report(result, circuit.name, key_length, cr, seed=seed)
    record["kind"] = "sat-attack"
    record["instance"] = metadata_to_dict(_locked_metadata(circuit, key_length, seed))
    return record


def _attack_job(job: Record) -> Record:
    """One grid cell of a batch. A cell the library rejects becomes a record
    with status ``error`` so that the other cells still run."""
    circuit = load_bench_ref(str(job["bench"]))
    try:
        return _attack_record(circuit, job)
    except ValueError as exc:
        return {
            "kind": "sat-attack",
            "design": circuit.name,
            "key_length": job["key_length"],
            "cr": job["cr"],
            "seed": job["seed"],
            "status": "error",
            "message": str(exc),
        }


ATTACK_RECORD_NAME = "attack_{design}_k{key_length}_cr{cr}_s{seed}.json"

ATTACK_CSV_COLUMNS = (
    "design", "key_length", "cr", "seed", "iterations", "status", "verified", "elapsed_s"
)


def _csv(columns: Sequence[str], records: Sequence[Record]) -> str:
    """One row per record and one column per field; a missing or null field
    is an empty cell. Writes ``rollup.csv`` and every ``report``."""
    lines = [",".join(columns)]
    lines.extend(
        ",".join("" if r.get(c) is None else str(r[c]) for c in columns) for r in records
    )
    return "\n".join(lines) + "\n"


def _write_attack_outputs(records: List[Record], out_dir: str) -> None:
    _ensure_dir(out_dir)
    for rec in records:
        _write_json(os.path.join(out_dir, ATTACK_RECORD_NAME.format(**rec)), rec)
    with open(os.path.join(out_dir, "rollup.csv"), "w", encoding="utf-8") as fh:
        fh.write(_csv(ATTACK_CSV_COLUMNS, records))
    measurements = [
        ExperimentRecord(
            metadata=metadata_from_dict(rec["instance"]),
            cr=float(rec["cr"]),
            elapsed_seconds=max(float(rec["elapsed_s"]), 1e-6),
            iterations=int(rec["iterations"]),
        )
        for rec in records
        if rec["status"] == "success"
    ]
    if measurements:
        with open(os.path.join(out_dir, "measurements.csv"), "w", encoding="utf-8") as fh:
            fh.write(records_to_csv(measurements))


def _attack_cell(
    bench: object, key_length: int, cr: int, seed: int, settings: Mapping[str, object]
) -> Record:
    """One attack job. ``settings`` is the batch config or, in single mode,
    the parsed arguments; either supplies the run limits."""
    return {
        "bench": bench,
        "key_length": key_length,
        "cr": cr,
        "seed": seed,
        "timeout_s": float(settings.get("timeout_s", 600.0)),
        "solver": str(settings.get("solver", "builtin")),
        "max_iterations": settings.get("max_iterations"),
        "channels": int(settings.get("channels", 1)),
    }


_ATTACK_SETTING_TYPES = (
    ("timeout_s", (int, float), "a number"),
    ("max_iterations", (int, type(None)), "an integer or null"),
    ("channels", (int,), "an integer"),
)


def _batch_jobs(config: Record) -> List[Record]:
    if not isinstance(config, dict):
        raise ValueError("attack config must be a JSON object")
    for field in ("benches", "key_lengths", "crs", "seeds"):
        value = config.get(field)
        if not isinstance(value, list) or not value:
            raise ValueError(f"config field {field!r} must be a non-empty list")
        if field != "benches" and not all(type(v) is int for v in value):
            raise ValueError(f"config field {field!r} must list integers")
    for field, types, what in _ATTACK_SETTING_TYPES:
        if field in config and type(config[field]) not in types:
            raise ValueError(f"config field {field!r} must be {what}")
    try:
        make_solver(config.get("solver", "builtin"))
    except ValueError as exc:
        raise ValueError(f"config field 'solver': {exc}") from None
    for bench in config["benches"]:
        load_bench_ref(str(bench))
    return [
        _attack_cell(bench, k, cr, seed, config)
        for bench, k, cr, seed in itertools.product(
            config["benches"], config["key_lengths"], config["crs"], config["seeds"]
        )
    ]


def cmd_attack(args) -> Union[Record, int]:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            jobs = _batch_jobs(json.load(fh))
        out_dir = _out_root(args.out)
        if args.workers > 1:
            with ProcessPoolExecutor(max_workers=args.workers) as pool:
                records = list(pool.map(_attack_job, jobs))
        else:
            records = [_attack_job(job) for job in jobs]
        _write_attack_outputs(records, out_dir)
        failures = [r for r in records if r["status"] != "success"]
        print(
            f"{len(records) - len(failures)}/{len(records)} runs succeeded; "
            f"outputs in {out_dir}"
        )
        for rec in failures:
            print(
                f"failed: {rec['design']} k={rec['key_length']} cr={rec['cr']} "
                f"seed={rec['seed']} status={rec['status']} {rec.get('message', '')}".rstrip(),
                file=sys.stderr,
            )
        return 1 if failures else 0
    if not args.bench or args.key_length is None:
        raise ValueError("attack needs --config or both --bench and --key-length")
    job = _attack_cell(args.bench, args.key_length, args.cr, args.seed, vars(args))
    return _attack_record(load_bench_ref(args.bench), job)


def cmd_sat_fit(args) -> Record:
    with open(args.csv, encoding="utf-8") as fh:
        records = records_from_csv(fh.read())
    model = build_model(records, max_submodels=args.max_submodels)
    save_model(model, args.out)
    return {
        "kind": "sat-fit",
        "sub_models": len(model.sub_models),
        "records": len(records),
        "model": args.out,
    }


def cmd_sat_estimate(args) -> Record:
    model = load_model(args.model)
    circuit = load_bench_ref(args.bench)
    md = _locked_metadata(circuit, args.key_length, args.seed)
    estimate = estimate_attack_time(model, md, args.cr, args.ip_seconds)
    return {
        "kind": "sat-estimate",
        "design": circuit.name,
        "key_length": args.key_length,
        "cr": args.cr,
        "ip_seconds": args.ip_seconds,
        "estimated_seconds": round(estimate, 6),
    }


def _per_encryption_view(profile: SwitchingProfile, cycles: int) -> np.ndarray:
    return profile.as_array().reshape(-1, cycles).sum(axis=1)


def cmd_psc_measure(args) -> Record:
    config = load_subsystem_config_file(args.config)
    # psc-measure always writes into a directory, its record included
    args.out = out_dir = _out_root(args.out)
    _ensure_dir(out_dir)
    cycles = config.cycles_per_encryption
    (sub1, blocks1), (sub2, blocks2) = simulate_key_pair(
        config, args.seed, args.plaintexts, granularity=PER_CYCLE
    )
    enc1 = _per_encryption_view(sub1, cycles)
    enc2 = _per_encryption_view(sub2, cycles)
    js = compare_profiles(enc1, enc2)
    score = security_score(js)
    matrix = per_cycle_js_matrix(
        {"subsystem": sub1.samples, **{n: p.samples for n, p in blocks1.items()}},
        {"subsystem": sub2.samples, **{n: p.samples for n, p in blocks2.items()}},
        cycles,
    )
    order = ["subsystem"] + list(blocks1)
    with open(os.path.join(out_dir, "js_matrix.csv"), "w", encoding="utf-8") as fh:
        fh.write(js_matrix_csv(matrix, order))
    for label, sub, blocks in (("key1", sub1, blocks1), ("key2", sub2, blocks2)):
        profile_csv = profiles_to_csv(
            SwitchingProfile(
                tuple(int(v) for v in _per_encryption_view(sub, cycles)),
                sub.key_hex,
                PER_ENCRYPTION,
            ),
            {
                n: SwitchingProfile(
                    tuple(int(v) for v in _per_encryption_view(p, cycles)),
                    p.key_hex,
                    PER_ENCRYPTION,
                )
                for n, p in blocks.items()
            },
        )
        with open(
            os.path.join(out_dir, f"profiles_{label}.csv"), "w", encoding="utf-8"
        ) as fh:
            fh.write(profile_csv)
    return {
        "kind": "psc-measure",
        "js": js,
        "score": score,
        "per_cycle_max_js": max(matrix["subsystem"]),
        "blocks": list(blocks1),
        "plaintexts": args.plaintexts,
        "seed": args.seed,
        "key1": sub1.key_hex,
        "key2": sub2.key_hex,
    }


def cmd_psc_estimate(args) -> Record:
    config = load_subsystem_config_file(args.config)
    db = load_profile_db(args.db)
    (aes1, _), (aes2, _) = simulate_key_pair(
        SubsystemConfig(), args.seed, args.plaintexts
    )
    mapped = map_config_blocks(config, db)
    js, score = estimate_subsystem_score((aes1, aes2), mapped, draw_seed=args.seed)
    return {
        "kind": "psc-estimate",
        "js": js,
        "score": score,
        "mapped": [m.source_name for m in mapped],
        "plaintexts": args.plaintexts,
        "seed": args.seed,
    }


def cmd_psc_db(args) -> Record:
    circuits = [load_bench_ref(ref) for ref in args.benches.split(",")]
    db = build_profile_db(circuits, windows=args.windows, seed=args.seed)
    save_profile_db(db, args.out)
    return {
        "kind": "psc-db",
        "entries": [e.source_name for e in db.entries],
        "windows": args.windows,
        "seed": args.seed,
        "directory": args.out,
    }


def cmd_scoap(args) -> Record:
    circuit = load_bench_ref(args.bench)
    return {
        "kind": "metric",
        "metric": "scoap",
        "design": circuit.name,
        "value": None,
        "controllability": {
            k: round(v, 9) for k, v in sorted(controllability(circuit, args.classical).items())
        },
        "observability": {
            k: round(v, 9) for k, v in sorted(observability(circuit).items())
        },
    }


def cmd_oh(args) -> Record:
    circuit = load_bench_ref(args.bench)
    return {
        "kind": "metric",
        "metric": "observation-hardness",
        "design": circuit.name,
        "node": args.node,
        "patterns": args.patterns,
        "value": observation_hardness(circuit, args.node, args.patterns, args.seed),
    }


def cmd_fsm_fi(args) -> Record:
    with open(args.csv, encoding="utf-8") as fh:
        spec = fsm_from_csv(fh.read())
    result = fsm_fi_vulnerability(spec)
    return {
        "kind": "metric",
        "metric": "fsm-fi",
        "value": result.vulnerable_percent,
        "mean_susceptibility": result.mean_susceptibility,
        "susceptibility_factors": list(result.susceptibility_factors),
    }


def cmd_puf(args) -> Record:
    with open(args.responses, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"no responses in {args.responses}")
    if args.hex:
        lines = [hex_to_bits(line) for line in lines]
    if args.intra:
        value = puf_intra_hd(lines[0], lines[1:])
        name = "puf-intra-hd"
    else:
        value = puf_inter_hd(lines)
        name = "puf-inter-hd"
    return {
        "kind": "metric",
        "metric": name,
        "value": value,
        "responses": len(lines),
    }


def cmd_cdc(args) -> Record:
    with open(args.csv, encoding="utf-8") as fh:
        defects = defects_from_csv(fh.read())
    return {
        "kind": "metric",
        "metric": "cdc",
        "value": cdc(defects),
        "defects": len(defects),
    }


_REPORT_FAMILY = {
    "sat-attack": "sat",
    "sat-estimate": "sat",
    "psc-measure": "psc",
    "psc-estimate": "psc",
    "metric": "metrics",
}


# per report kind: the record kinds that become rows, the row order and
# the columns; psc rows name their record kind in a "record" column
_REPORTS = {
    "sat": (
        {"sat-attack"},
        lambda r: (r["design"], r["key_length"], r["cr"], r.get("seed", 0)),
        ATTACK_CSV_COLUMNS,
    ),
    "psc": (
        {"psc-measure", "psc-estimate"},
        lambda r: (r["kind"], r.get("seed", 0)),
        ("record", "js", "score", "plaintexts", "seed"),
    ),
    "metrics": ({"metric"}, lambda r: r["metric"], ("metric", "value")),
}


def cmd_report(args) -> int:
    if not os.path.isdir(args.records):
        raise ValueError(f"records directory not found: {args.records}")
    records = []
    for name in sorted(os.listdir(args.records)):
        if name.endswith(".json"):
            path = os.path.join(args.records, name)
            with open(path, encoding="utf-8") as fh:
                records.append(json.load(fh))
            if not isinstance(records[-1], dict):
                raise ValueError(f"{path} does not hold a JSON object")
    known = [r for r in records if r.get("kind") in _REPORT_FAMILY]
    families = {_REPORT_FAMILY[r["kind"]] for r in known}
    if len(families) > 1:
        raise ValueError(f"mixed record kinds in {args.records}: {sorted(families)}")
    if families and args.kind not in families:
        raise ValueError(f"records are {families.pop()!r}, not {args.kind!r}")
    kinds, order, columns = _REPORTS[args.kind]
    rows = sorted((dict(r, record=r["kind"]) for r in known if r["kind"] in kinds), key=order)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(_csv(columns, rows))
    print(f"wrote {args.out} ({len(known)} records)")
    return 0


DEMO_FSM_CSV = (
    "from,to,vulnerable,pv,po,p_fs\n"
    "s0,s1,1,5,3,2;4\n"
    "s1,s2,0,,,\n"
    "s2,s3,0,,,\n"
    "s3,s0,0,,,\n"
)

DEMO_DEFECTS_CSV = "confidence,frequency\n0.8,3\n0.5,1\n"

DEMO_RESPONSES = "00\n01\n11\n"

DEMO_SERIES = {
    "alpha": [(1, 2.0), (2, 2.1), (4, 6.0), (8, 5.8), (16, 33.0)],
    "beta": [(1, 1.0), (2, 1.4), (4, 2.2), (8, 4.1), (16, 8.0)],
}


def _demo_measurement_records() -> List[ExperimentRecord]:
    records = []
    for i, (name, series) in enumerate(sorted(DEMO_SERIES.items())):
        md = CircuitMetadata(
            name=f"{name}_enc8",
            key_length=8,
            num_gates=120 + 40 * i,
            num_primary_inputs=12,
            num_primary_outputs=8,
            num_flip_flop_io=16,
        )
        for cr, seconds in series:
            records.append(
                ExperimentRecord(
                    metadata=md, cr=float(cr), elapsed_seconds=seconds, iterations=9 + cr
                )
            )
    return records


def cmd_demo(args) -> int:
    out = _out_root(args.out)
    seed = str(args.seed)
    _ensure_dir(os.path.join(out, "inputs"))
    attack_dir = os.path.join(out, "attack")
    config_path = os.path.join(out, "attack_config.json")
    fit_csv = os.path.join(out, "reference_measurements.csv")
    model_path = os.path.join(out, "sat_model.json")
    db_dir = os.path.join(out, "psc_db")
    subsystem_path = os.path.join(out, "subsystem.json")
    psc_dir = os.path.join(out, "psc")
    metrics_dir = os.path.join(out, "metrics")
    fsm_csv, defects_csv, responses = (
        os.path.join(out, "inputs", name) for name in ("fsm.csv", "defects.csv", "responses.txt")
    )

    _write_json(
        config_path,
        {
            "benches": ["pkg:c17", "pkg:rs160"],
            "key_lengths": [4],
            "crs": [1, 2],
            "seeds": [args.seed],
            "timeout_s": 600.0,
            "solver": "builtin",
        },
    )
    _write_json(
        subsystem_path,
        {
            "aes": {"enabled": True},
            "noise_ips": [
                {"bench": "pkg:s1488", "seed": args.seed},
                {"bench": "pkg:s832", "seed": args.seed + 1},
            ],
            "granularity": PER_ENCRYPTION,
        },
    )
    for path, text in (
        (fit_csv, records_to_csv(_demo_measurement_records())),
        (fsm_csv, DEMO_FSM_CSV),
        (defects_csv, DEMO_DEFECTS_CSV),
        (responses, DEMO_RESPONSES),
    ):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    steps = [
        ["attack", "--config", config_path, "--out", attack_dir],
        ["sat-fit", "--csv", fit_csv, "--out", model_path],
        ["sat-estimate", "--model", model_path, "--bench", "pkg:rs220", "--key-length", "4",
         "--cr", "16", "--ip-seconds", "1.0", "--seed", seed,
         "--out", os.path.join(out, "sat_estimate.json")],
        ["psc-db", "--benches", "pkg:s1488,pkg:s832", "--windows", "300", "--seed", seed,
         "--out", db_dir],
        ["psc-measure", "--config", subsystem_path, "--plaintexts", "300", "--seed", seed,
         "--out", psc_dir],
        ["psc-estimate", "--config", subsystem_path, "--db", db_dir, "--plaintexts", "300",
         "--seed", seed, "--out", os.path.join(psc_dir, "estimate.json")],
        ["metrics", "scoap", "--bench", "pkg:c17",
         "--out", os.path.join(metrics_dir, "scoap_c17.json")],
        ["metrics", "oh", "--bench", "pkg:c17", "--node", "22",
         "--out", os.path.join(metrics_dir, "oh_c17.json")],
        ["metrics", "fsm-fi", "--csv", fsm_csv, "--out", os.path.join(metrics_dir, "fsm.json")],
        ["metrics", "puf", "--responses", responses,
         "--out", os.path.join(metrics_dir, "puf.json")],
        ["metrics", "cdc", "--csv", defects_csv, "--out", os.path.join(metrics_dir, "cdc.json")],
        ["report", "--kind", "sat", "--records", attack_dir,
         "--out", os.path.join(out, "report_sat.csv")],
        ["report", "--kind", "metrics", "--records", metrics_dir,
         "--out", os.path.join(out, "report_metrics.csv")],
    ]
    for step in steps:
        code = main(step)
        if code != 0:
            return code

    digest = stable_digest(out)
    with open(os.path.join(out, "digest.txt"), "w", encoding="utf-8") as fh:
        fh.write(digest + "\n")
    print(f"demo complete; digest {digest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwassure",
        description="Quantifiable hardware-assurance workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lock", help="insert random key gates into a netlist")
    p.add_argument("--bench", required=True)
    p.add_argument("--key-length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--key-out", default=None)
    p.set_defaults(func=cmd_lock)

    p = sub.add_parser("frame", help="unroll a sequential design into one combinational frame")
    p.add_argument("--bench", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_frame)

    p = sub.add_parser("compose", help="wrap a framed design in a scan codec")
    p.add_argument("--bench", required=True)
    p.add_argument("--cr", type=int, required=True)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("attack", help="run key-recovery attacks, single or batched")
    p.add_argument("--bench")
    p.add_argument("--key-length", type=int)
    p.add_argument("--cr", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON grid config for batch mode")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--timeout-s", type=float, default=3600.0)
    p.add_argument("--solver", default="builtin")
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_attack, record_name=ATTACK_RECORD_NAME)

    p = sub.add_parser("sat-fit", help="fit attack-time multiplier curves from measurements")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-submodels", type=int, default=20)
    p.set_defaults(func=cmd_sat_fit)

    p = sub.add_parser("sat-estimate", help="estimate platform attack time from a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--bench", required=True)
    p.add_argument("--key-length", type=int, required=True)
    p.add_argument("--cr", type=float, required=True)
    p.add_argument("--ip-seconds", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sat_estimate, record_name="estimate.json")

    p = sub.add_parser("psc-measure", help="measure key-pair switching divergence")
    p.add_argument("--config", required=True)
    p.add_argument("--plaintexts", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_psc_measure, record_name="measure.json")

    p = sub.add_parser("psc-estimate", help="estimate divergence via the profile database")
    p.add_argument("--config", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--plaintexts", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_psc_estimate, record_name="estimate.json")

    p = sub.add_parser("psc-db", help="pre-simulate benchmark switching profiles")
    p.add_argument("--benches", required=True, help="comma-separated bench references")
    p.add_argument("--windows", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_psc_db)

    p = sub.add_parser("metrics", help="structural and statistical metric calculators")
    metric = p.add_subparsers(dest="metric", required=True)
    m = metric.add_parser("scoap", help="SCOAP controllability and observability")
    m.add_argument("--bench", required=True)
    m.add_argument("--classical", action="store_true")
    m.set_defaults(func=cmd_scoap)
    m = metric.add_parser("oh", help="observation hardness of one net")
    m.add_argument("--bench", required=True)
    m.add_argument("--node", required=True)
    m.add_argument("--patterns", type=int, default=None)
    m.add_argument("--seed", type=int, default=0)
    m.set_defaults(func=cmd_oh)
    m = metric.add_parser("fsm-fi", help="FSM fault-injection vulnerability")
    m.add_argument("--csv", required=True)
    m.set_defaults(func=cmd_fsm_fi)
    m = metric.add_parser("puf", help="PUF inter- or intra-chip Hamming distance")
    m.add_argument("--responses", required=True)
    m.add_argument("--intra", action="store_true")
    m.add_argument("--hex", action="store_true")
    m.set_defaults(func=cmd_puf)
    m = metric.add_parser("cdc", help="counterfeit detection confidence over defects")
    m.add_argument("--csv", required=True)
    m.set_defaults(func=cmd_cdc)
    for m in metric.choices.values():
        m.add_argument("--out")
        m.set_defaults(record_name="metric.json")

    p = sub.add_parser("report", help="summarize run records into plot-ready CSV")
    p.add_argument("--kind", choices=["sat", "psc", "metrics"], required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("demo", help="run the full fixed-seed demonstration pipeline")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code.

    A handler returns its record, which is printed and, for a command that
    names a record file, written to ``--out``; the exit code is 1 when the
    record's ``status`` is not ``success``. A command that writes its own
    files and prints a summary line returns its exit code instead.

    A library error on bad input becomes one ``error:`` line and exit code
    2: ``NetlistError`` and ``BenchParseError`` are ``ValueError``s, a
    missing file is an ``OSError`` and a config entry without a required
    field is a ``KeyError``.
    """
    args = build_parser().parse_args(argv)
    try:
        result = args.func(args)
        if isinstance(result, int):
            return result
        _emit(result, args.out, getattr(args, "record_name", None))
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if result.get("status", "success") == "success" else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
