"""Tseitin CNF encoding of combinational circuits and DIMACS I/O.

Variables are positive integers; literals follow the DIMACS sign
convention. :func:`encode_folded` encodes a single gate over literal or
constant inputs, and adds a variable only when the constants leave two or
more inputs free; BUF and NOT gates never get one. :func:`tseitin_encode`
encodes a whole circuit with it, so every net maps to a literal (primary
inputs first, then gate outputs in evaluation order); gates with more than
two XOR/XNOR inputs introduce auxiliary chain variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from ..netlist import Circuit, NetlistError

Clause = Tuple[int, ...]
# A net's value during folding: a literal, or a constant as a bool.
Value = Union[int, bool]


@dataclass
class CnfFormula:
    num_variables: int
    clauses: List[Clause] = field(default_factory=list)
    net_to_var: Dict[str, int] = field(default_factory=dict)

    def add(self, *lits: int) -> None:
        self.clauses.append(tuple(lits))

    def new_var(self) -> int:
        self.num_variables += 1
        return self.num_variables


def _encode_gate(f: CnfFormula, kind: str, out: int, ins: Sequence[int]) -> None:
    """Clauses for ``out`` = ``kind`` over two or more literals."""
    if kind == "AND":
        for x in ins:
            f.add(-out, x)
        f.add(out, *[-x for x in ins])
    elif kind == "NAND":
        for x in ins:
            f.add(out, x)
        f.add(-out, *[-x for x in ins])
    elif kind == "OR":
        for x in ins:
            f.add(out, -x)
        f.add(-out, *ins)
    elif kind == "NOR":
        for x in ins:
            f.add(-out, -x)
        f.add(out, *ins)
    else:  # XOR, XNOR; encode_folded folds every other kind
        acc = ins[0]
        for x in ins[1:-1]:
            t = f.new_var()
            _encode_xor2(f, t, acc, x, invert=False)
            acc = t
        _encode_xor2(f, out, acc, ins[-1], invert=(kind == "XNOR"))


# kind -> (controlling input value, output value it forces)
_CONTROLLING = {"AND": (False, False), "NAND": (False, True), "OR": (True, True), "NOR": (True, False)}


def encode_folded(f: CnfFormula, kind: str, ins: Sequence[Value]) -> Value:
    """Encode one gate over literal or constant inputs; returns its output.

    Constants are folded away: a controlling constant or all-constant
    inputs give a constant, and a single free input gives that literal or
    its negation. Otherwise the output is a fresh variable of ``f``,
    encoded over the free inputs alone.
    """
    lits = [x for x in ins if not isinstance(x, bool)]
    consts = [x for x in ins if isinstance(x, bool)]
    if kind in _CONTROLLING:
        control, forced = _CONTROLLING[kind]
        if control in consts:
            return forced
        invert = kind in ("NAND", "NOR")
        if not lits:
            return not forced
    elif kind in ("XOR", "XNOR"):
        invert = (sum(consts) + (kind == "XNOR")) % 2 == 1
        if not lits:
            return invert
        kind = "XNOR" if invert else "XOR"
    elif kind in ("NOT", "BUF"):
        x = ins[0]
        if kind == "BUF":
            return x
        return (not x) if isinstance(x, bool) else -x
    else:
        raise NetlistError(f"cannot encode gate kind {kind!r}")
    if len(lits) == 1:
        return -lits[0] if invert else lits[0]
    out = f.new_var()
    _encode_gate(f, kind, out, lits)
    return out


def _encode_xor2(f: CnfFormula, y: int, a: int, b: int, invert: bool) -> None:
    if invert:
        y = -y
    f.add(-y, a, b)
    f.add(-y, -a, -b)
    f.add(y, -a, b)
    f.add(y, a, -b)


def tseitin_encode(circuit: Circuit) -> CnfFormula:
    """Encode a combinational circuit; net_to_var maps every net to a literal.

    Primary inputs get variables first, then gate outputs in
    :meth:`Circuit.topo_gates` order, through :func:`encode_folded`: a BUF
    output takes its input's literal and a NOT output the negated literal,
    so neither gets a variable of its own.
    """
    if not circuit.is_combinational:
        raise NetlistError("cannot encode sequential circuits; frame first")
    f = CnfFormula(num_variables=0)
    lits = f.net_to_var
    for net in circuit.primary_inputs:
        lits[net] = f.new_var()
    for g in circuit.topo_gates():
        lits[g.output] = encode_folded(f, g.kind, [lits[n] for n in g.inputs])
    return f


def to_dimacs(formula: CnfFormula, comments: Sequence[str] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {formula.num_variables} {len(formula.clauses)}")
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfFormula:
    num_vars = 0
    declared = None
    clauses: List[Clause] = []
    pending: List[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line!r}")
            num_vars, declared = int(parts[2]), int(parts[3])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
                num_vars = max(num_vars, abs(lit))
    if pending:
        clauses.append(tuple(pending))
    if declared is not None and declared != len(clauses):
        raise ValueError(f"DIMACS declares {declared} clauses, found {len(clauses)}")
    return CnfFormula(num_variables=num_vars, clauses=clauses)
