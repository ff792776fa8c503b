"""hwassure benchmark: one workload in a fresh process, closed loop, one thread.

    python3 hwbench/run.py --workload attack-grid --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``hwassure`` from its
``src/`` directory. The timed phase repeats whole passes over the
workload's ops, as many as fit in ``--seconds`` of op time (at least one);
each op starts when the previous one and its checks have ended. Checks run
outside the timed interval. The end-to-end times are scaled to a fixed machine
speed, measured by probes between ops and between imports. The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, holding the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
See hwbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".hwbench_out"
SPEC = ROOT / "BENCHMARK.json"
FINGERPRINTS = HERE / "fingerprints.json"
SETUP_REPEATS = 5
# The speed probe: a buffer beyond the per-core caches, steps per timing, and
# the probe's median time on the 2-vCPU x86_64 machine the benchmark was
# defined on. hwbench/README.md (Machine-speed scaling) says why 8 MB.
SPEED_BUFFER_MB = 8
SPEED_STEPS = 30000
SPEED_REPEATS = 5
SPEED_NOMINAL_S = 0.0164
# The workloads' times move about half as much as the probes', in log terms
# (README, Machine-speed scaling): times scale by the square root of a ratio.
SPEED_ELASTICITY = 0.5
# Set-up is mostly imports, so its probe is an import the program cannot
# change: numpy's, in a fresh interpreter; its median time on that machine.
NUMPY_IMPORT_NOMINAL_S = 0.16
WORKLOAD_NAMES = ("attack-grid", "attack-large", "psc-subsystem", "demo")


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _machine() -> Dict[str, Any]:
    import numpy

    uname = os.uname()
    return {"nproc": os.cpu_count(), "machine": uname.machine, "system": uname.sysname,
            "release": uname.release, "python": sys.version.split()[0], "numpy": numpy.__version__}


def _rounded(values: List[float]) -> List[float]:
    return [round(v, 5) for v in values]


def _speed_probe_s(buffer: bytearray) -> float:
    """Median of five timings of a fixed task, pseudo-random reads and writes
    across ``buffer``: how fast this machine runs interpreter work that misses
    the per-core caches, right now. Op times are scaled by it. An untimed
    first round brings the buffer back into the caches the previous op used."""
    mask = len(buffer) - 1
    times = []
    for _ in range(SPEED_REPEATS + 1):
        t = time.perf_counter()
        x = acc = 0
        for _ in range(SPEED_STEPS):
            x = (x * 1103515245 + 12345) & mask  # the same addresses every round
            acc += buffer[x]
            buffer[x ^ 64] = acc & 0xFF
        times.append(time.perf_counter() - t)
    return statistics.median(times[1:])


def _scaled(seconds: float, probe_s: float, nominal_s: float = SPEED_NOMINAL_S) -> float:
    """``seconds`` measured while a probe took ``probe_s``, at its nominal speed."""
    return seconds * (nominal_s / probe_s) ** SPEED_ELASTICITY


def _import_seconds(modules: str) -> float:
    """Import time of ``modules`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            f"import {modules}; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def _fingerprint_status(key: str, seed: int, digest: str) -> str:
    """Compare with the stored reference: one digest for a workload whose
    outputs do not depend on the seed, or one per seed."""
    reference = json.loads(FINGERPRINTS.read_text(encoding="utf-8")).get(key)
    if isinstance(reference, dict):
        reference = reference.get(str(seed))
    if reference is None:
        return "unrecorded"
    return "match" if reference == digest else "changed"


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "hwassure" / "__init__.py").is_file():
        print(f"error: no hwassure sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    speed_buffer = bytearray(b"\x5a") * (SPEED_BUFFER_MB << 20)  # every page touched now
    started = time.perf_counter()
    import hwassure
    import hwassure.cli  # noqa: F401  (the demo workload's entry point)
    import_s = [time.perf_counter() - started]
    if Path(hwassure.__file__).resolve().parent != SRC / "hwassure":
        print(f"error: imported hwassure from {hwassure.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import layers
    from tracing import Tracer, calibrate_wrapper_cost

    tracer = Tracer() if args.trace else None
    if tracer:
        layers.install(tracer)
    from workloads import WORKLOADS  # after install, so it binds the wrapped functions

    wl = WORKLOADS[args.workload]

    def traced(op_id: str, fn):
        if not tracer:
            return fn()
        index = tracer.begin_op(op_id)
        tracer.enabled = True
        try:
            return fn()
        finally:
            tracer.enabled = False
            tracer.end_op(index)

    setup_s: List[float] = []
    setup_ids = [f"setup-{i}" for i in range(SETUP_REPEATS)]
    for sid in setup_ids:
        t = time.perf_counter()
        ctx = traced(sid, lambda: wl.setup(args.seed, args.smoke))
        setup_s.append(time.perf_counter() - t)
    numpy_import_s: List[float] = []
    if not tracer:  # this process paid the import once; fresh interpreters give the rest
        for i in range(SETUP_REPEATS):
            if i:
                import_s.append(_import_seconds("hwassure, hwassure.cli"))
            numpy_import_s.append(_import_seconds("numpy"))

    OUT.mkdir(exist_ok=True)
    ops = wl.ops(ctx, args.seed, args.smoke, OUT)
    durations: List[float] = []
    probes = [_speed_probe_s(speed_buffer)]
    op_ids: List[str] = []
    first_outputs: List[Any] = []
    attempted = failed = passes = 0
    timed = cpu = 0.0
    # whole passes, as many as fit in --seconds (at least one)
    while passes == 0 or timed * (passes + 1) / passes <= args.seconds:
        for i, op in enumerate(ops):
            op_id = f"pass{passes}-op{i}"
            attempted += 1
            cpu0 = _cpu_s()
            t = time.perf_counter()
            try:
                result, error = traced(op_id, op.run), None
            except Exception:  # one broken op is recorded, the run goes on
                result, error = None, traceback.format_exc()
            dt = time.perf_counter() - t
            cpu += _cpu_s() - cpu0
            timed += dt
            durations.append(dt)
            op_ids.append(op_id)
            if error:
                problems, output = [error], None
            else:
                problems, output = op.check(result)
            if passes == 0:
                first_outputs.append(output)
            elif output != first_outputs[i]:
                problems.append("output differs from the first pass")
            if problems:
                failed += 1
                print(f"FAILED {op.label}: {'; '.join(problems)}", file=sys.stderr)
            probes.append(_speed_probe_s(speed_buffer))
        passes += 1

    # each op at the speed the probes before and after it read
    scaled = [_scaled(dt, (probes[i] + probes[i + 1]) / 2) for i, dt in enumerate(durations)]
    wall_s = timed / passes
    op_p50_s = statistics.median(durations)
    setup_total_s = statistics.median(import_s) + statistics.median(setup_s)
    digest = hashlib.sha256(json.dumps(first_outputs).encode()).hexdigest()
    key = args.workload + ("/smoke" if args.smoke else "")
    status = _fingerprint_status(key, args.seed, digest)
    print("machine: " + json.dumps(_machine()))
    print(f"run: workload={args.workload} seed={args.seed} passes={passes} ops={attempted} "
          f"failed={failed} import_s={_rounded(import_s)} setup_s={_rounded(setup_s)}")
    print(f"op_s: {_rounded(durations)}")
    print(f"speed: numpy_import_s={_rounded(numpy_import_s)} probe_s={_rounded(probes)}")
    print(f"unscaled: setup_s={setup_total_s:.4f} wall_s={wall_s:.4f} op_p50_s={op_p50_s:.4f}")
    print("outputs: " + json.dumps(first_outputs))
    print(f"fingerprint: {digest} {status}")

    if tracer:
        spans_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(str(spans_file))
        print(f"trace: {len(tracer.spans)} spans in {spans_file.relative_to(ROOT)}")
        values = layers.per_layer_metrics(
            tracer, op_ids, setup_ids, op_cpu_s=cpu, op_wall_s=timed,
            wall_per_pass_s=sum(scaled) / passes, wrapper_cost_s=calibrate_wrapper_cost(),
        )
    else:
        values = {
            "setup_s": _scaled(setup_total_s, statistics.median(numpy_import_s),
                               NUMPY_IMPORT_NOMINAL_S),
            "wall_s": sum(scaled) / passes,
            "op_p50_s": statistics.median(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": (attempted - failed) / attempted,
        }
    listed = spec["per_layer" if tracer else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
