"""Compare the benchmark on a base commit and on the working tree, in pairs.

For every workload and every seed, runs ``hwbench/run.py`` once on a clean
export of the base commit and once on the working tree, alternating which
side goes first (base first on even pair numbers). The end-to-end metric
names and which direction is better come from ``BENCHMARK.json``.

The summary, written as JSON, gives per workload and metric each side's
median, quartiles and quartile distance over the finished pairs, the pair
win counts (ties count for neither side), each run's fingerprint status,
whether the two runs of a pair gave the same output digest, each side's
median process wall time and op count per run (what the comparison
costs), and the ``machine:`` line. It is rewritten after every run. A run
that exits non-zero or prints nothing is recorded under ``failure`` with
its exit code and the tail of its stderr, and the comparison stops there
with exit code 1.

    python3 tools/bench_pairs.py --base HEAD --out pairs.json
    python3 tools/bench_pairs.py --base HEAD~1 --workloads psc-subsystem --pairs 3 \\
        --seconds 5 --out psc-pairs.json

The base commit is exported with ``git archive`` into a temporary
directory, so the repository's own git metadata is left as it was.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def export_commit(rev: str, dest: Path) -> str:
    """Write the committed files of ``rev`` under ``dest``; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """One untraced benchmark run; its metrics, op count, process wall time,
    fingerprint and machine line, or for a failed run its exit code and the
    tail of its stderr."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "hwbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    process_wall_s = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"seed": seed, "exit_code": done.returncode, "stderr_tail": done.stderr[-2000:]}
    result = json.loads(lines[-1])
    info = {line.split(":", 1)[0]: line.split(":", 1)[1].strip()
            for line in lines[:-1] if ":" in line}
    return {
        "seed": seed,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "process_wall_s": process_wall_s,
        # "<sha256> <match|changed|unrecorded>"; digests compare sides
        # on seeds without a stored reference
        "fingerprint": info.get("fingerprint", "missing missing").split(),
        "machine": info.get("machine"),
    }


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "quartile_distance": q3 - q1}


def summarize(runs: Dict[str, List[Dict[str, object]]], metrics: List[dict]) -> Dict[str, object]:
    """Medians, quartiles and pair wins per metric over one workload's
    finished pairs."""
    pairs = min(len(runs[side]) for side in SIDES)
    if not pairs:
        return {}
    runs = {side: runs[side][:pairs] for side in SIDES}
    summary: Dict[str, object] = {}
    for spec in metrics:
        name, lower_is_better = spec["name"], spec["better"] == "lower"
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        wins = losses = 0
        for base, change in zip(values["base"], values["change"]):
            if change != base:
                better = change < base if lower_is_better else change > base
                wins, losses = wins + better, losses + (not better)
        summary[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **{side: {**quartiles(values[side]), "runs": values[side]} for side in SIDES},
            "change_wins": wins,
            "change_losses": losses,
            "pairs": len(values["base"]),
        }
    return summary


def workload_summary(runs: Dict[str, List[Dict[str, object]]],
                     metrics: List[dict]) -> Dict[str, object]:
    """The summary of one workload's runs so far."""
    return {
        "metrics": summarize(runs, metrics),
        "fingerprints": {side: [r["fingerprint"][1] for r in runs[side]] for side in SIDES},
        "same_outputs": [b["fingerprint"][0] == c["fingerprint"][0]
                         for b, c in zip(runs["base"], runs["change"])],
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "run_cost": {
            side: {field: statistics.median(r[field] for r in runs[side]) if runs[side] else None
                   for field in ("process_wall_s", "attempted")}
            for side in SIDES
        },
        "seeds": [r["seed"] for r in runs["base"]],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, help="JSON summary to write")
    parser.add_argument("--workloads", nargs="+", help="default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    report: Dict[str, object] = {
        "settings": {"pairs": args.pairs, "first_seed": args.first_seed, "seconds": seconds,
                     "order": "base first on even pair numbers"},
        "workloads": {},
    }

    def write_report() -> None:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_dir = Path(tmp)
        report["base"] = export_commit(args.base, base_dir)
        report["change"] = "working tree"
        checkouts = {"base": base_dir, "change": ROOT}
        for workload in workloads:
            runs: Dict[str, List[Dict[str, object]]] = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                seed = args.first_seed + pair
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = run_once(checkouts[side], workload, seed, seconds)
                    if "exit_code" in run:
                        report["failure"] = {"workload": workload, "side": side, **run}
                        write_report()
                        print(f"{workload} seed {seed} {side}: exited {run['exit_code']}\n"
                              f"{run['stderr_tail']}", file=sys.stderr)
                        return 1
                    runs[side].append(run)
                    report.setdefault("machine", run["machine"])
                    print(f"{workload} seed {seed} {side}: "
                          + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items())
                          + " fingerprint={} {}".format(*run["fingerprint"]), flush=True)
                    report["workloads"][workload] = workload_summary(runs, spec["end_to_end"])
                    write_report()
    return 0


if __name__ == "__main__":
    sys.exit(main())
