"""Seeded random benchmark generator.

The package ships a set of generated bench files instead of the classic
ISCAS distributions, which cannot be redistributed here. The s-named
recipes reproduce the published interface and gate-kind profile of their
namesakes (input/output/DFF counts and per-kind gate counts), the c-named
recipes reproduce the commonly quoted size of theirs, and the rs-family
are random sequential circuits sized for attack experiments. Generation
is deterministic per (recipe, seed).
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Sequence

from .netlist import GATE_OPS, _UNARY_KINDS, Circuit, make_circuit


def synth_circuit(
    name: str,
    n_pi: int,
    n_po: int,
    n_dff: int,
    kind_counts: Mapping[str, int],
    seed: int,
    p_wide: float = 0.2,
) -> Circuit:
    """Generate a random circuit with exactly the requested element counts.

    ``kind_counts`` maps combinational gate kinds to how many of each to
    place. Gates only read nets created before them, so the result is
    acyclic by construction. DFF D-pins are wired after all combinational
    gates exist and may close sequential (but never combinational) loops.
    """
    if n_pi < 2:
        raise ValueError("need at least 2 primary inputs")
    rng = random.Random(seed)

    pis = [f"i{k}" for k in range(n_pi)]
    qs = [f"q{k}" for k in range(n_dff)]
    pool: List[str] = pis + qs
    # Sources nobody reads yet; drained first so PIs and state feed logic.
    unused = pool.copy()
    rng.shuffle(unused)

    kinds: List[str] = []
    for kind, count in sorted(kind_counts.items()):
        if kind not in GATE_OPS:
            raise ValueError(f"unsupported kind {kind!r}")
        kinds.extend([kind] * count)
    rng.shuffle(kinds)

    specs: List[tuple] = []
    used = set()

    def pick_inputs(arity: int) -> List[str]:
        chosen: List[str] = []
        while len(chosen) < arity:
            if unused and rng.random() < 0.6:
                net = unused.pop(rng.randrange(len(unused)))
            elif len(pool) > 24 and rng.random() < 0.5:
                net = pool[rng.randrange(len(pool) - 24, len(pool))]
            else:
                net = pool[rng.randrange(len(pool))]
            if net not in chosen:
                chosen.append(net)
        return chosen

    for idx, kind in enumerate(kinds):
        if kind in _UNARY_KINDS:
            arity = 1
        else:
            arity = 3 if (rng.random() < p_wide and len(pool) > 3) else 2
        ins = pick_inputs(arity)
        for net in ins:
            used.add(net)
        out = f"n{idx}"
        specs.append((out, kind, ins))
        pool.append(out)

    comb_outs = [s[0] for s in specs]
    if n_dff and not comb_outs:
        raise ValueError("DFFs need combinational nets to sample")
    dff_specs = []
    for k in range(n_dff):
        d = comb_outs[rng.randrange(len(comb_outs))]
        used.add(d)
        dff_specs.append((qs[k], "DFF", [d]))

    dead_ends = [n for n in comb_outs if n not in used]
    rng.shuffle(dead_ends)
    po_candidates = dead_ends + [n for n in reversed(comb_outs) if n in used]
    pos: List[str] = []
    for net in po_candidates:
        if len(pos) == n_po:
            break
        if net not in pos:
            pos.append(net)
    if len(pos) < n_po:
        raise ValueError("not enough distinct nets for the requested output count")

    return make_circuit(name, dff_specs + specs, pis, pos)


def _table_kinds(inv: int, n_and: int, n_nand: int, n_or: int, n_nor: int) -> Dict[str, int]:
    kinds = {"NOT": inv, "AND": n_and, "NAND": n_nand, "OR": n_or, "NOR": n_nor}
    return {k: v for k, v in kinds.items() if v > 0}


# name -> (n_pi, n_po, n_dff, kind_counts, seed)
BUNDLED_RECIPES: Dict[str, tuple] = {
    # Combinational circuits sized like their ISCAS'85 / MCNC namesakes.
    "c499": (41, 32, 0, {"XOR": 104, "AND": 56, "NOT": 40, "OR": 8, "NAND": 4}, 1499),
    "c880": (60, 26, 0, {"AND": 117, "NAND": 87, "OR": 61, "NOR": 29, "NOT": 63, "XOR": 35, "BUF": 12}, 1880),
    "c1355": (41, 32, 0, {"AND": 176, "NAND": 112, "NOR": 40, "NOT": 166, "XOR": 80}, 2355),
    # Sequential circuits matching the published attribute rows of their
    # ISCAS'89 namesakes: inputs, outputs, DFFs, inverters, AND/NAND/OR/NOR.
    "s298": (3, 6, 14, _table_kinds(44, 31, 9, 16, 19), 3298),
    "s344": (9, 11, 15, _table_kinds(59, 44, 18, 9, 30), 3344),
    "s386": (7, 7, 6, _table_kinds(41, 83, 0, 35, 0), 3386),
    "s400": (3, 6, 21, _table_kinds(58, 11, 36, 25, 34), 3400),
    "s444": (3, 6, 21, _table_kinds(62, 13, 58, 14, 34), 3444),
    "s510": (19, 7, 6, _table_kinds(32, 34, 61, 29, 55), 3510),
    "s526": (3, 6, 21, _table_kinds(52, 56, 22, 28, 35), 3526),
    "s641": (35, 24, 19, _table_kinds(272, 90, 4, 13, 0), 3641),
    "s713": (35, 23, 19, _table_kinds(254, 94, 28, 17, 0), 3713),
    "s820": (18, 19, 5, _table_kinds(33, 76, 54, 60, 66), 3820),
    "s832": (18, 19, 5, _table_kinds(25, 78, 54, 64, 66), 3832),
    "s838": (34, 1, 32, _table_kinds(158, 105, 57, 56, 70), 3838),
    "s953": (16, 23, 29, _table_kinds(84, 49, 114, 36, 112), 3953),
    "s1196": (14, 14, 18, _table_kinds(141, 118, 119, 101, 50), 4196),
    "s1238": (14, 14, 18, _table_kinds(80, 134, 125, 112, 57), 4238),
    "s1423": (17, 5, 74, _table_kinds(167, 197, 64, 137, 92), 4423),
    "s1488": (8, 19, 6, _table_kinds(103, 350, 0, 200, 0), 4488),
    "s5378": (35, 49, 179, _table_kinds(1775, 0, 0, 239, 765), 5378),
    "s9234": (36, 39, 211, _table_kinds(3570, 955, 528, 431, 113), 9234),
    # Random sequential circuits for locking / scan-compression experiments.
    "rs160": (16, 12, 32, {"AND": 35, "NAND": 35, "OR": 29, "NOR": 29, "NOT": 19, "XOR": 13}, 7160),
    "rs220": (16, 12, 32, {"AND": 48, "NAND": 48, "OR": 40, "NOR": 40, "NOT": 26, "XOR": 18}, 7220),
    "rs280": (16, 12, 32, {"AND": 62, "NAND": 62, "OR": 50, "NOR": 50, "NOT": 34, "XOR": 22}, 7280),
    "rs340": (16, 12, 32, {"AND": 75, "NAND": 75, "OR": 61, "NOR": 61, "NOT": 41, "XOR": 27}, 7340),
    "rs400": (16, 12, 32, {"AND": 88, "NAND": 88, "OR": 72, "NOR": 72, "NOT": 48, "XOR": 32}, 7400),
}

ATTACK_BENCHES: Sequence[str] = ("rs160", "rs220", "rs280", "rs340", "rs400")


def build_recipe(name: str) -> Circuit:
    if name not in BUNDLED_RECIPES:
        raise KeyError(f"no recipe named {name!r}")
    n_pi, n_po, n_dff, kinds, seed = BUNDLED_RECIPES[name]
    return synth_circuit(name, n_pi, n_po, n_dff, kinds, seed)
