"""Which public entry points of ``hwassure`` are traced, and the per-layer
metrics derived from the spans and counters they record.

Only public names are touched. Solver state is read through the public
attributes ``conflicts_total``, ``nvars``, ``clauses``, ``learnts`` and
``heap``; a missing attribute makes the metrics built on it ``None``.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Optional, Sequence

from tracing import Tracer

SOLVER = "satattack.solver."


def _attr_len(obj: Any, name: str) -> Optional[int]:
    value = getattr(obj, name, None)
    return None if value is None else len(value)


def _solve_hook(tracer: Tracer, args: Sequence[Any], kwargs: Dict[str, Any]):
    solver = args[0]
    assumptions = args[1] if len(args) > 1 else kwargs.get("assumptions", ())
    before = getattr(solver, "conflicts_total", None)

    def after(sat: bool, seconds: float) -> None:
        phase = ("dip" if sat else "unsat") if assumptions else "extract"
        tracer.add(SOLVER + phase + "_solve_s", seconds)
        now = getattr(solver, "conflicts_total", None)
        if before is None or now is None:
            tracer.gauge(SOLVER + "conflicts_unknown", True)
        else:
            tracer.add(SOLVER + "conflicts", now - before)
            if phase == "extract":
                tracer.add(SOLVER + "extract_conflicts", now - before)
        nvars = getattr(solver, "nvars", None)
        tracer.gauge(SOLVER + "final_vars", nvars)
        tracer.gauge(SOLVER + "final_clauses", _attr_len(solver, "clauses"))
        tracer.gauge(SOLVER + "learnts", _attr_len(solver, "learnts"))
        heap = _attr_len(solver, "heap")
        if heap is None:
            tracer.gauge(SOLVER + "heap_peak", None)
        else:
            tracer.peak(SOLVER + "heap_peak", heap, **{SOLVER + "heap_vars": nvars})

    return after


def _batch_evaluate_hook(tracer: Tracer, args: Sequence[Any], kwargs: Dict[str, Any]):
    circuit = args[0]
    lanes_from = [a for a in (args[1:3] + (kwargs.get("inputs"), kwargs.get("state"))) if a]
    lanes = next(iter(lanes_from[0].values())).size if lanes_from else 0
    tracer.add("netlist.gate_evals", len(circuit.gates) * lanes)
    return None


def _aes_hook(tracer: Tracer, args: Sequence[Any], kwargs: Dict[str, Any]):
    tracer.add("aes.encryptions", len(args[1]))
    return None


def _encode_hook(tracer: Tracer, args: Sequence[Any], kwargs: Dict[str, Any]):
    def after(formula: Any, seconds: float) -> None:
        tracer.gauge("satattack.cnf.base_vars", formula.num_variables)
        tracer.gauge("satattack.cnf.base_clauses", len(formula.clauses))

    return after


def _instance_hook(tracer: Tracer, args: Sequence[Any], kwargs: Dict[str, Any]):
    def after(instance: Any, seconds: float) -> None:
        tracer.gauge("platform_model.model_gates", len(instance[0].core.gates))

    return after


def _attack_hook(tracer: Tracer, args: Sequence[Any], kwargs: Dict[str, Any]):
    def after(result: Any, seconds: float) -> None:
        tracer.add("satattack.attack.iterations", result.iterations)

    return after


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer; call after importing hwassure."""
    for module in ("hwassure.cli", "hwassure.sat_estimation", "hwassure.assurance_metrics"):
        importlib.import_module(module)
    from hwassure.satattack.attack import CircuitOracle
    from hwassure.satattack.solver import CdclSolver

    functions = [
        ("hwassure.netlist", "parse_bench", None),
        ("hwassure.netlist", "batch_evaluate", _batch_evaluate_hook),
        ("hwassure.locking", "insert_random_locking", None),
        ("hwassure.platform_model", "frame", None),
        ("hwassure.platform_model", "compose_platform_frame", None),
        ("hwassure.satattack.attack", "build_platform_instance", _instance_hook),
        ("hwassure.satattack.attack", "sat_attack", _attack_hook),
        ("hwassure.satattack.attack", "verify_recovered_key", None),
        ("hwassure.satattack.cnf", "tseitin_encode", _encode_hook),
        ("hwassure.aes", "aes128_encrypt_batch", _aes_hook),
        ("hwassure.powersim", "windowed_toggle_samples", None),
        ("hwassure.powersim", "simulate_subsystem", None),
        ("hwassure.pscmetrics", "compare_profiles", None),
        ("hwassure.pscmetrics", "per_cycle_js_matrix", None),
        ("hwassure.psc_estimation", "build_profile_db", None),
        ("hwassure.psc_estimation", "simulate_key_pair", None),
        ("hwassure.psc_estimation", "map_config_blocks", None),
        ("hwassure.psc_estimation", "estimate_subsystem_score", None),
    ]
    for module, name, hook in functions:
        tracer.wrap_function(module, name, hook)
    for module in ("hwassure.cli", "hwassure.sat_estimation", "hwassure.assurance_metrics"):
        tracer.wrap_module(module)
    tracer.wrap_method(CircuitOracle, "query")
    tracer.wrap_method(CdclSolver, "solve", _solve_hook)
    tracer.count_method(CdclSolver, "add_clause", SOLVER + "add_clause")


def _ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer,
    op_ids: List[str],
    setup_ids: List[str],
    op_cpu_s: float,
    op_wall_s: float,
    wall_per_pass_s: float,
    wrapper_cost_s: float,
) -> Dict[str, Optional[float]]:
    """Per-op means over the timed ops; set-up metrics are per set-up."""
    n = max(1, len(op_ids))
    ops = set(op_ids)
    spans = tracer.op_spans(ops)
    setup_spans = tracer.op_spans(set(setup_ids))
    records = tracer.op_records[-len(op_ids):] if op_ids else []

    def incl(name: str, pool=spans) -> float:
        return sum(s.duration for s in pool if s.name == name and s.outer)

    def calls(name: str, pool=spans) -> int:
        return sum(1 for s in pool if s.name == name)

    def self_time(name: str) -> float:
        return sum(s.self_s for s in spans if s.name == name)

    def module_incl(module: str) -> float:
        return sum(s.duration for s in spans if s.module == module and s.outer_module)

    def total(key: str) -> float:
        return sum(r.get(key, 0) for r in records)

    def mean_gauge(key: str) -> Optional[float]:
        seen = [r[key] for r in records if key in r]
        if not seen:
            return 0.0  # the layer was not used in this workload
        if any(v is None for v in seen):
            return None
        return sum(seen) / len(seen)

    conflicts_known = not any(SOLVER + "conflicts_unknown" in r for r in records)

    def conflict_total(key: str) -> Optional[float]:
        return total(key) if conflicts_known else None

    solve_s = incl("satattack.solver.CdclSolver.solve")
    conflicts = conflict_total(SOLVER + "conflicts")
    heap_peaks = [r for r in records if SOLVER + "heap_peak" in r]
    if any(r[SOLVER + "heap_peak"] is None for r in heap_peaks):
        heap_peak = heap_per_var = None
    elif heap_peaks:
        top = max(heap_peaks, key=lambda r: r[SOLVER + "heap_peak"])
        heap_peak = top[SOLVER + "heap_peak"]
        heap_per_var = _ratio(heap_peak, top.get(SOLVER + "heap_vars"))
    else:
        heap_peak = heap_per_var = 0.0
    batch_s = incl("netlist.batch_evaluate")
    aes_s = incl("aes.aes128_encrypt_batch")
    n_setup = max(1, len(setup_ids))
    per_op = {
        "netlist.batch_evaluate_s": batch_s,
        "netlist.batch_evaluate_calls": calls("netlist.batch_evaluate"),
        "locking.insert_s": incl("locking.insert_random_locking"),
        "platform_model.compose_s": module_incl("platform_model"),
        "satattack.cnf.encode_s": incl("satattack.cnf.tseitin_encode"),
        "satattack.solver.solve_s": solve_s,
        "satattack.solver.solve_calls": calls("satattack.solver.CdclSolver.solve"),
        "satattack.solver.dip_solve_s": total(SOLVER + "dip_solve_s"),
        "satattack.solver.unsat_solve_s": total(SOLVER + "unsat_solve_s"),
        "satattack.solver.extract_solve_s": total(SOLVER + "extract_solve_s"),
        "satattack.solver.conflicts": conflicts,
        "satattack.solver.extract_conflicts": conflict_total(SOLVER + "extract_conflicts"),
        "satattack.solver.add_clause_s": total(SOLVER + "add_clause.s"),
        "satattack.solver.add_clause_calls": total(SOLVER + "add_clause.calls"),
        "satattack.attack.self_s": self_time("satattack.attack.sat_attack"),
        "satattack.attack.iterations": total("satattack.attack.iterations"),
        "satattack.attack.oracle_s": incl("satattack.attack.CircuitOracle.query"),
        "satattack.attack.oracle_calls": calls("satattack.attack.CircuitOracle.query"),
        "satattack.attack.verify_s": incl("satattack.attack.verify_recovered_key"),
        "aes.batch_s": aes_s,
        "powersim.windowed_s": incl("powersim.windowed_toggle_samples"),
        "powersim.windowed_calls": calls("powersim.windowed_toggle_samples"),
        "powersim.subsystem_self_s": self_time("powersim.simulate_subsystem"),
        "pscmetrics.compare_s": incl("pscmetrics.compare_profiles"),
        "pscmetrics.compare_calls": calls("pscmetrics.compare_profiles"),
        "psc_estimation.estimate_s": incl("psc_estimation.estimate_subsystem_score"),
        "cli.self_s": sum(s.self_s for s in spans if s.module == "cli"),
        "sat_estimation.s": module_incl("sat_estimation"),
        "assurance_metrics.s": module_incl("assurance_metrics"),
        "process.cpu_s": op_cpu_s,
        "tracing.overhead_s": sum(1 for s in spans if s.name != "op") * wrapper_cost_s
        + total(SOLVER + "add_clause.calls") * wrapper_cost_s,
    }
    out: Dict[str, Optional[float]] = {
        k: (None if v is None else v / n) for k, v in per_op.items()
    }
    out.update({
        "netlist.parse_s": incl("netlist.parse_bench", setup_spans) / n_setup,
        "netlist.parse_calls": calls("netlist.parse_bench", setup_spans) / n_setup,
        "psc_estimation.db_build_s": incl("psc_estimation.build_profile_db", setup_spans) / n_setup,
        "netlist.gate_evals_per_s": _ratio(total("netlist.gate_evals"), batch_s),
        "aes.encryptions_per_s": _ratio(total("aes.encryptions"), aes_s),
        "satattack.solver.conflicts_per_s": _ratio(conflicts, solve_s),
        "satattack.solver.final_vars": mean_gauge(SOLVER + "final_vars"),
        "satattack.solver.final_clauses": mean_gauge(SOLVER + "final_clauses"),
        "satattack.solver.learnts": mean_gauge(SOLVER + "learnts"),
        "satattack.solver.heap_peak": heap_peak,
        "satattack.solver.heap_per_var": heap_per_var,
        "satattack.cnf.base_vars": mean_gauge("satattack.cnf.base_vars"),
        "satattack.cnf.base_clauses": mean_gauge("satattack.cnf.base_clauses"),
        "platform_model.model_gates": mean_gauge("platform_model.model_gates"),
        "process.cpu_util": _ratio(op_cpu_s, op_wall_s),
        "tracing.wall_s": wall_per_pass_s,
    })
    return out
