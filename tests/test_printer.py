"""Text round-trip: parse(print(c)) must equal c structurally."""

import pytest
from hypothesis import given, settings, strategies as st

from qflow.circuit import (BinOp, BodyInstruction, Circuit, Const, FormalRef, FuncCall, GateDef,
                           Instruction, Neg, Register)
from qflow.errors import QasmError
from qflow.flatten import flatten
from qflow.parser import parse_qasm
from qflow.printer import print_qasm


def test_single_h_line():
    c = Circuit(registers=(Register("q", "q", 1),), instructions=(Instruction("h", (), (("q", 0),)),))
    text = print_qasm(c)
    lines = [ln for ln in text.splitlines() if ln]
    assert lines[0] == "OPENQASM 2.0;"
    assert lines.count("h q[0];") == 1


def test_delay_line_format():
    c = Circuit(
        registers=(Register("q", "q", 1),),
        instructions=(Instruction("delay", (100,), (("q", 0),)),),
    )
    assert "delay q[0], 100;" in print_qasm(c).splitlines()


def test_roundtrip_corpus(corpus):
    for name, circ in corpus:
        again = parse_qasm(print_qasm(circ))
        assert again == circ, f"text round-trip failed for {name}"


def test_roundtrip_gate_defs_and_conditions():
    src = (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "gate rot(a) x0 { rz(a/2) x0; ry(-a) x0; barrier x0; }\n"
        "qreg q[2];\n"
        "creg c[2];\n"
        "rot(0.7853981633974483) q[0];\n"
        "ccx.. placeholder"
    )
    src = src.replace("ccx.. placeholder", "if(c==2) rot(1.5) q[1];\nmeasure q -> c;")
    c = parse_qasm(src)
    assert parse_qasm(print_qasm(c)) == c


def test_roundtrip_without_include():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n")
    text = print_qasm(c)
    assert "include" not in text
    assert parse_qasm(text) == c


def test_params_bit_exact():
    src = "OPENQASM 2.0;\nqreg q[1];\nu3(0.1,2.0000000000000004,-0.0) q[0];\n"
    c = parse_qasm(src)
    c2 = parse_qasm(print_qasm(c))
    for a, b in zip(c.instructions[0].params, c2.instructions[0].params):
        assert a == b and str(a) == str(b)


def test_print_parse_print_fixpoint(corpus):
    for name, circ in corpus:
        once = print_qasm(circ)
        twice = print_qasm(parse_qasm(once))
        assert once == twice, f"printer not a fixpoint for {name}"


def test_negative_constant_base_keeps_its_parentheses():
    c = parse_qasm("OPENQASM 2.0;\nqreg r[1];\ngate g(a) r { rz((-2)^a) r; }\ng(2) r[0];\n")
    assert "rz((-2.0)^a) r;" in print_qasm(c)
    again = parse_qasm(print_qasm(c))
    assert again == c
    assert flatten(again).instructions[0].params == (4.0,)


# Expression trees as the parser leaves them in a macro body: every
# operator has a formal below it, since constant subtrees are folded.
_CONSTS = st.floats(allow_nan=False, allow_infinity=False).map(Const)
_FORMALS = st.sampled_from(("a", "b")).map(FormalRef)


def _extend(symbolic):
    operand = symbolic | _CONSTS
    ops = st.sampled_from(("+", "-", "*", "/", "^"))
    return (symbolic.map(Neg)
            | st.builds(BinOp, ops, symbolic, operand)
            | st.builds(BinOp, ops, operand, symbolic)
            | st.builds(FuncCall, st.sampled_from(("sin", "cos", "tan", "exp", "ln", "sqrt")),
                        symbolic))


_EXPRS = st.recursive(_FORMALS, _extend, max_leaves=8)


def _flat_params(circuit):
    try:
        return [repr(i.params) for i in flatten(circuit).instructions]
    except QasmError as exc:
        return str(exc)


@given(st.lists(_EXPRS, min_size=1, max_size=3),
       st.tuples(st.floats(-4, 4), st.floats(-4, 4)))
@settings(max_examples=200, deadline=None)
def test_roundtrip_random_macro_expressions(exprs, actuals):
    body = tuple(BodyInstruction("rz", (e,), (0,)) for e in exprs)
    c = Circuit(
        registers=(Register("q", "q", 1),),
        instructions=(Instruction("g", actuals, (("q", 0),)),),
        gate_defs=(GateDef("g", ("a", "b"), ("r",), body),),
    )
    again = parse_qasm(print_qasm(c))
    assert again == c
    assert _flat_params(again) == _flat_params(c)


@pytest.mark.parametrize("instr, message", [
    (Instruction("measure", (), (("q", 0),)), r"'measure' writes 1 clbit\(s\), got 0"),
    (Instruction("measure", (), (("q", 0), ("q", 1)), (("c", 0),)),
     r"'measure' acts on 1 qubit\(s\), got 2"),
    (Instruction("delay", (), (("q", 0),)), "delay cycle count must be a nonnegative integer"),
    (Instruction("delay", (5,), (("q", 0), ("q", 1))), r"'delay' acts on 1 qubit\(s\), got 2"),
    (Instruction("barrier", (), (("q", 0),), (), ("c", 0)), "a barrier cannot be conditioned"),
    (Instruction("frob", (), (("q", 0),)), "undeclared gate 'frob'"),
])
def test_an_instruction_that_would_not_read_back_is_refused(instr, message):
    c = Circuit(registers=(Register("q", "q", 2), Register("c", "c", 1)),
                instructions=(Instruction("h", (), (("q", None),)), instr))
    with pytest.raises(QasmError, match=f"^instruction 1: {message}"):
        print_qasm(c)


def test_a_macro_call_and_a_register_wide_operand_print_as_they_are():
    text = ("OPENQASM 2.0;\ngate bell a,b {\n  h a;\n  cx a,b;\n}\nqreg q[2];\ncreg c[2];\n"
            "bell q[0],q[1];\nmeasure q -> c;\n")
    assert print_qasm(parse_qasm(text)) == text
