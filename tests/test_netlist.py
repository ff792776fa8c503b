import numpy as np
import pytest

from hwassure.benchgen import BUNDLED_RECIPES, build_recipe, synth_circuit
from hwassure.bundled import bundled_bench_text, load_bundled
from hwassure.netlist import (
    BenchParseError,
    Circuit,
    Gate,
    NetlistError,
    batch_evaluate,
    evaluate,
    extract_metadata,
    index_input_matrix,
    input_patterns,
    make_circuit,
    parse_bench,
    write_bench,
)


def naive_eval(circuit, inputs, state=None):
    """Independent reference evaluator: memoized recursion over drivers."""
    drivers = {g.output: g for g in circuit.gates}
    memo = dict(inputs)
    for ff in circuit.flip_flops:
        memo[ff.output] = state[ff.output]

    def value(net):
        if net in memo:
            return memo[net]
        g = drivers[net]
        vals = [value(n) for n in g.inputs]
        if g.kind == "AND":
            v = int(all(vals))
        elif g.kind == "NAND":
            v = int(not all(vals))
        elif g.kind == "OR":
            v = int(any(vals))
        elif g.kind == "NOR":
            v = int(not any(vals))
        elif g.kind == "XOR":
            v = sum(vals) % 2
        elif g.kind == "XNOR":
            v = (sum(vals) + 1) % 2
        elif g.kind == "NOT":
            v = 1 - vals[0]
        else:
            v = vals[0]
        memo[net] = v
        return v

    outs = {po: value(po) for po in circuit.primary_outputs}
    nxt = {ff.output: value(ff.inputs[0]) for ff in circuit.flip_flops}
    return outs, nxt


def test_parse_c17_counts():
    c17 = load_bundled("c17")
    assert len(c17.gates) == 6
    assert all(g.kind == "NAND" for g in c17.gates)
    assert len(c17.primary_inputs) == 5
    assert len(c17.primary_outputs) == 2


def test_case_insensitive_keywords_and_comments():
    text = """
    # comment line
    input(a)
    Input(b)
    OUTPUT(y)
    y = nAnD(a, b)   # trailing comment
    """
    c = parse_bench(text)
    assert c.primary_inputs == ("a", "b")
    assert c.gates[0].kind == "NAND"


def test_roundtrip_structural_identity():
    for name in ("c17", "s298", "c499"):
        c = load_bundled(name)
        c2 = parse_bench(write_bench(c), name=name)
        assert c2.primary_inputs == c.primary_inputs
        assert c2.primary_outputs == c.primary_outputs
        assert [(g.kind, g.inputs, g.output) for g in c2.gates] == [
            (g.kind, g.inputs, g.output) for g in c.gates
        ]


def test_syntax_error_reports_line_number():
    with pytest.raises(BenchParseError, match="line 3"):
        parse_bench("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n")
    with pytest.raises(BenchParseError, match="line 2"):
        parse_bench("INPUT(a)\nthis is not bench\n")


def test_duplicate_driver_rejected():
    text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ny = OR(a, b)\n"
    with pytest.raises(BenchParseError, match="duplicate driver"):
        parse_bench(text)
    with pytest.raises(NetlistError, match="duplicate driver"):
        make_circuit("d", [("a", "BUF", ["b"])], ["a", "b"], ["a"])


def test_undefined_net_rejected():
    with pytest.raises(NetlistError, match="undefined net"):
        parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n")
    with pytest.raises(NetlistError, match="undefined net"):
        parse_bench("INPUT(a)\nOUTPUT(ghost)\nx = NOT(a)\n")


def test_combinational_cycle_rejected():
    text = "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = BUF(x)\n"
    with pytest.raises(NetlistError, match="cycle"):
        parse_bench(text)


def test_dff_breaks_cycles():
    # x depends on q; q is state, so the loop through the DFF is legal.
    text = "INPUT(a)\nOUTPUT(x)\nx = AND(a, q)\nq = DFF(x)\n"
    c = parse_bench(text)
    out, nxt = evaluate(c, {"a": 1}, {"q": 1})
    assert out == {"x": 1}
    assert nxt == {"q": 1}


def test_gate_arity_validation():
    with pytest.raises(NetlistError, match="exactly 1"):
        make_circuit("bad", [("y", "NOT", ["a", "b"])], ["a", "b"], ["y"])
    with pytest.raises(NetlistError, match="at least 2"):
        make_circuit("bad", [("y", "AND", ["a"])], ["a"], ["y"])


def test_c499_gate_count_matches_file_lines():
    text = bundled_bench_text("c499")
    gate_lines = [
        ln for ln in text.splitlines() if "=" in ln.split("#", 1)[0]
    ]
    c = load_bundled("c499")
    assert len(c.gates) == len(gate_lines) == 212


def test_evaluate_matches_reference_on_random_circuits():
    rng = np.random.default_rng(11)
    for seed in range(5):
        c = synth_circuit(
            f"r{seed}", 6, 4, 3,
            {"AND": 8, "NAND": 8, "OR": 6, "NOR": 6, "NOT": 4, "XOR": 4},
            seed=seed,
        )
        for _ in range(25):
            ins = {pi: int(rng.integers(2)) for pi in c.primary_inputs}
            st = {ff.output: int(rng.integers(2)) for ff in c.flip_flops}
            assert evaluate(c, ins, st) == naive_eval(c, ins, st)


def test_batch_evaluate_matches_scalar():
    c = load_bundled("s344")
    rng = np.random.default_rng(7)
    lanes = 40
    ins = next(input_patterns(c.primary_inputs, lanes, seed=6))
    st = {ff.output: rng.integers(0, 2, lanes, dtype=np.uint8) for ff in c.flip_flops}
    bout, bnxt = batch_evaluate(c, ins, st)
    for lane in range(lanes):
        sout, snxt = evaluate(
            c,
            {pi: int(ins[pi][lane]) for pi in c.primary_inputs},
            {q: int(st[q][lane]) for q in st},
        )
        assert all(int(bout[po][lane]) == sout[po] for po in c.primary_outputs)
        assert all(int(bnxt[q][lane]) == snxt[q] for q in snxt)


def test_index_input_matrix_enumerates_all_patterns():
    nets = ("a", "b", "c")
    mat = index_input_matrix(nets, 8)
    rows = {tuple(int(mat[n][i]) for n in nets) for i in range(8)}
    assert len(rows) == 8


def test_missing_assignment_raises():
    c = load_bundled("c17")
    with pytest.raises(NetlistError, match="missing assignment"):
        evaluate(c, {"1": 0})
    s = load_bundled("s298")
    with pytest.raises(NetlistError, match="state"):
        evaluate(s, {pi: 0 for pi in s.primary_inputs})


def test_metadata_and_csv_row():
    c = load_bundled("s953")
    md = extract_metadata(c)
    assert (md.num_primary_inputs, md.num_primary_outputs) == (16, 23)
    assert md.num_flip_flop_io == 29
    assert md.num_gates == len(c.gates)

    md2 = extract_metadata(c, key_length=8, exclude_inputs=["i0", "i1"])
    assert md2.key_length == 8
    assert md2.num_primary_inputs == 14


def test_bundled_recipes_all_build():
    for name in ("s298", "s400", "rs160"):
        n_pi, n_po, n_dff, kinds, _ = BUNDLED_RECIPES[name]
        c = build_recipe(name)
        assert len(c.primary_inputs) == n_pi
        assert len(c.primary_outputs) == n_po
        assert len(c.flip_flops) == n_dff
        from collections import Counter
        counts = Counter(g.kind for g in c.gates if g.kind != "DFF")
        assert dict(counts) == dict(kinds)


def test_gate_ids_dense():
    c = load_bundled("s344")
    assert [g.gid for g in c.gates] == list(range(len(c.gates)))
    with pytest.raises(NetlistError, match="dense"):
        Circuit("bad", [Gate(3, "NOT", ("a",), "y")], ["a"], ["y"])
