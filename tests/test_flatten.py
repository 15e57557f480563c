"""Macro expansion and broadcast semantics."""

import re

import numpy as np
import pytest

from qflow.circuit import Circuit, GateDef, Instruction, Register, BodyInstruction, Const
from qflow.errors import QasmError
from qflow.cli import main
from qflow.flatten import MAX_EXPANSION_INSTRUCTIONS, flatten
from qflow.gates import LIBRARY
from qflow.parser import parse_qasm

from oracles import circuit_unitary, phase_distance


def test_macro_inlining():
    c = parse_qasm(
        "OPENQASM 2.0; qreg q[2]; gate bell a,b { h a; cx a,b; } bell q[0],q[1];"
    )
    flat = flatten(c)
    assert [i.opcode for i in flat.instructions] == ["h", "cx"]
    assert flat.instructions[0].qubits == (("q", 0),)
    assert flat.gate_defs == () and flat.includes == ()


def test_register_broadcast():
    flat = flatten(parse_qasm("OPENQASM 2.0; qreg q[3]; h q;"))
    assert [i.qubits for i in flat.instructions] == [(("q", 0),), (("q", 1),), (("q", 2),)]


def test_measure_broadcast_pairs():
    flat = flatten(parse_qasm("OPENQASM 2.0; qreg q[2]; creg c[2]; measure q -> c;"))
    assert [(i.qubits, i.clbits) for i in flat.instructions] == [
        ((("q", 0),), (("c", 0),)),
        ((("q", 1),), (("c", 1),)),
    ]


def test_two_register_broadcast():
    flat = flatten(parse_qasm("OPENQASM 2.0; qreg a[2]; qreg b[2]; cx a,b;"))
    assert [i.qubits for i in flat.instructions] == [
        (("a", 0), ("b", 0)),
        (("a", 1), ("b", 1)),
    ]


def test_mixed_broadcast_fixed_operand():
    flat = flatten(parse_qasm("OPENQASM 2.0; qreg a[1]; qreg b[3]; cx a[0],b;"))
    assert [i.qubits for i in flat.instructions] == [
        (("a", 0), ("b", 0)),
        (("a", 0), ("b", 1)),
        (("a", 0), ("b", 2)),
    ]


@pytest.mark.parametrize("instr", [
    Instruction("h", (), (("z", None),)),
    Instruction("measure", (), (("q", None),), (("d", None),)),
    Instruction("barrier", (), (("q", 0), ("z", None))),
], ids=["h z", "measure q -> d", "barrier q[0], z"])
def test_register_wide_operand_of_an_undeclared_register_is_a_qasm_error(instr):
    circ = Circuit(registers=(Register("q", "q", 2), Register("c", "c", 2)),
                   instructions=(instr,))
    with pytest.raises(QasmError, match="undeclared register '[zd]'"):
        flatten(circ)


@pytest.mark.parametrize("call, message", [
    (Instruction("bell", (), (("q", 0),)), r"gate 'bell' acts on 2 qubit\(s\), got 1"),
    (Instruction("bell", (), (("q", 0), ("q", 1), ("q", 2))),
     r"gate 'bell' acts on 2 qubit\(s\), got 3"),
    (Instruction("bell", (0.5,), (("q", 0), ("q", 1))), r"gate 'bell' takes 0 parameter\(s\), got 1"),
    (Instruction("rot", (), (("q", 0),)), r"gate 'rot' takes 1 parameter\(s\), got 0"),
    (Instruction("rot", (0.5, 0.7), (("q", 0),)), r"gate 'rot' takes 1 parameter\(s\), got 2"),
])
def test_a_macro_call_is_checked_against_its_definition_before_it_expands(call, message):
    # a short call raised IndexError, and extra qubits or parameters were dropped
    circ = parse_qasm("OPENQASM 2.0; qreg q[3]; gate bell a,b { h a; cx a,b; }"
                      "gate rot(t) a { rz(t) a; }")
    with pytest.raises(QasmError, match=f"^instruction 0: {message}"):
        flatten(Circuit(registers=circ.registers, instructions=(call,), gate_defs=circ.gate_defs))


def test_barrier_broadcast_is_single_instruction():
    flat = flatten(parse_qasm("OPENQASM 2.0; qreg q[3]; barrier q;"))
    assert len(flat.instructions) == 1
    assert flat.instructions[0].qubits == (("q", 0), ("q", 1), ("q", 2))


def test_condition_propagates_through_macro():
    c = parse_qasm(
        "OPENQASM 2.0; qreg q[2]; creg c[1]; gate gg a,b { h a; cx a,b; } if(c==1) gg q[0],q[1];"
    )
    flat = flatten(c)
    assert all(i.condition == ("c", 1) for i in flat.instructions)


def test_condition_skips_a_body_barrier():
    # QASM 2 has no conditioned barrier, so one would not read back
    c = parse_qasm(
        "OPENQASM 2.0; qreg q[2]; creg c[1]; gate inner a,b { barrier a,b; x b; }"
        " gate gg a,b { h a; inner a,b; } if(c==1) gg q[0],q[1];"
    )
    flat = flatten(c)
    assert [(i.opcode, i.condition) for i in flat.instructions] == [
        ("h", ("c", 1)), ("barrier", None), ("x", ("c", 1))]


def test_nested_macros_match_semantics():
    src = (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[3];\n"
        "gate inner(t) a,b { cx a,b; rz(t) b; cx a,b; }\n"
        "gate outer(t) a,b,c { inner(t/2) a,b; inner(t/2) b,c; h a; }\n"
        "outer(0.9) q[0],q[1],q[2];\n"
    )
    c = parse_qasm(src)
    flat = flatten(c)
    assert all(i.opcode in LIBRARY for i in flat.instructions)
    # semantic check: expanded unitary equals composing the macro bodies
    # symbolically (the oracle flattens too, so compare against a hand
    # expansion built from library gates)
    hand = parse_qasm(
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[3];\n"
        "cx q[0],q[1]; rz(0.45) q[1]; cx q[0],q[1];\n"
        "cx q[1],q[2]; rz(0.45) q[2]; cx q[1],q[2];\n"
        "h q[0];\n"
    )
    assert phase_distance(circuit_unitary(hand), circuit_unitary(flat)) < 1e-12


def test_flatten_only_builtins(corpus):
    for name, circ in corpus:
        for instr in flatten(circ).instructions:
            assert instr.opcode in LIBRARY or instr.opcode in (
                "measure",
                "barrier",
                "reset",
                "delay",
            ), f"{name}: {instr.opcode}"


def test_flatten_idempotent(corpus):
    for name, circ in corpus:
        once = flatten(circ)
        assert flatten(once) == once, name


def test_opaque_call_fails():
    c = parse_qasm("OPENQASM 2.0; qreg q[1]; opaque mystery a; mystery q[0];")
    with pytest.raises(QasmError, match="opaque"):
        flatten(c)


def test_recursion_guard():
    # hand-build mutually recursive defs (the parser cannot produce these)
    gd_a = GateDef("aa", (), ("x",), (BodyInstruction("bb", (), (0,)),))
    gd_b = GateDef("bb", (), ("x",), (BodyInstruction("aa", (), (0,)),))
    c = Circuit(
        registers=(Register("q", "q", 1),),
        instructions=(Instruction("aa", (), (("q", 0),)),),
        gate_defs=(gd_a, gd_b),
    )
    with pytest.raises(QasmError, match="depth"):
        flatten(c)


def test_broadcast_collision_detected():
    c = Circuit(
        registers=(Register("q", "q", 2),),
        instructions=(Instruction("cx", (), (("q", None), ("q", 1)),),),
    )
    with pytest.raises(QasmError, match="duplicate qubit"):
        flatten(c)


@pytest.mark.parametrize(
    "body, arg",
    [("a*a", "1e300"), ("1/a", "0"), ("a^a", "1000"), ("(0-a)^0.5", "2")],
    ids=["infinite", "division by zero", "overflow", "complex"],
)
def test_hostile_macro_argument_is_a_qasm_error(body, arg, tmp_path, capsys):
    # finite arguments that make a macro body non-finite or complex used to
    # escape flatten as ValueError, ZeroDivisionError, OverflowError or TypeError
    src = f"OPENQASM 2.0;\nqreg q[1];\ngate g(a) r {{ rx({body}) r; }}\ng({arg}) q[0];\n"
    with pytest.raises(QasmError, match="invalid constant expression"):
        flatten(parse_qasm(src))
    path = tmp_path / "hostile.qasm"
    path.write_text(src)
    assert main(["simulate", "sv", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_macro_expression_error_names_the_gate_and_the_call(tmp_path, capsys):
    src = ("OPENQASM 2.0;\nqreg q[2];\ngate g(a) r { rx(a*a) r; }\ngate outer(a) r { g(a) r; }\n"
           "h q;\ng(1e300) q[0];\nouter(1e300) q[1];\n")
    where = "(in gate 'g', called by instruction 1)"
    with pytest.raises(QasmError, match=re.escape(where)):
        flatten(parse_qasm(src))
    # a call from inside another macro names the innermost gate and the top-level call
    nested = src.replace("h q;\ng(1e300) q[0];\n", "")
    with pytest.raises(QasmError, match=re.escape("(in gate 'g', called by instruction 0)")):
        flatten(parse_qasm(nested))
    path = tmp_path / "hostile.qasm"
    path.write_text(src)
    assert main(["simulate", "sv", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: invalid constant expression: result inf is not finite {where}\n")


def test_expansion_size_is_bounded():
    # 30 nested doubling macros would expand to 2**30 instructions
    lines = ["OPENQASM 2.0;", "qreg q[1];", "gate g0 a { x a; }"]
    lines += [f"gate g{k} a {{ g{k - 1} a; g{k - 1} a; }}" for k in range(1, 31)]
    c = parse_qasm("\n".join(lines + ["g30 q[0];"]))
    with pytest.raises(QasmError, match=f"more than {MAX_EXPANSION_INSTRUCTIONS}"):
        flatten(c)
    # the budget counts the whole output, not one call
    c = parse_qasm("\n".join(lines[:22] + ["g19 q[0];"] * 3))
    with pytest.raises(QasmError, match=f"more than {MAX_EXPANSION_INSTRUCTIONS}"):
        flatten(c)
