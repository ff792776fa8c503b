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

from ..netlist import GATE_OPS, Circuit, NetlistError, _gate_value

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


def _encode_gate(f: CnfFormula, op: str, inverted: bool, out: int, ins: Sequence[int]) -> None:
    """Clauses for ``out`` = the ``op`` reduction over two or more literals,
    inverted if ``inverted``."""
    if op == "xor":
        acc = ins[0]
        for x in ins[1:-1]:
            t = f.new_var()
            _encode_xor2(f, t, acc, x, invert=False)
            acc = t
        _encode_xor2(f, out, acc, ins[-1], invert=inverted)
        return
    # y = AND(xs); an OR is the AND of the negated inputs, negated (De Morgan)
    y, xs = (-out if inverted else out), ins
    if op == "or":
        y, xs = -y, [-x for x in ins]
    for x in xs:
        f.add(-y, x)
    f.add(y, *[-x for x in xs])


def encode_folded(f: CnfFormula, kind: str, ins: Sequence[Value]) -> Value:
    """Encode one gate over literal or constant inputs; returns its output.

    Constants are folded away: a controlling constant or all-constant
    inputs give the gate evaluated on the constants, an XOR or XNOR takes
    the constants' parity into its inversion, and a single free input gives
    that literal or its negation. Otherwise the output is a fresh variable
    of ``f``, encoded over the free inputs alone.
    """
    try:
        op, inverted = GATE_OPS[kind]
    except KeyError:
        raise NetlistError(f"cannot encode gate kind {kind!r}") from None
    lits = [x for x in ins if not isinstance(x, bool)]
    if len(lits) < len(ins):
        consts = [x for x in ins if isinstance(x, bool)]
        # True is the controlling value of an OR, False that of an AND
        if not lits or (op != "xor" and (op == "or") in consts):
            return bool(_gate_value(kind, consts))
        if op == "xor":
            inverted ^= bool(sum(consts) & 1)
    if len(lits) == 1:
        return -lits[0] if inverted else lits[0]
    out = f.new_var()
    _encode_gate(f, op, inverted, out, lits)
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
