"""Text round-trip: parse(print(c)) must equal c structurally."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qflow.circuit import Circuit, Instruction, Register
from qflow.errors import QasmError
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


def test_roundtrip_expanded_macros_and_conditions():
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


@pytest.mark.parametrize("instr, message", [
    (Instruction("measure", (), (("q", 0),)), r"'measure' writes 1 clbit\(s\), got 0"),
    (Instruction("measure", (), (("q", 0), ("q", 1)), (("c", 0),)),
     r"'measure' acts on 1 qubit\(s\), got 2"),
    (Instruction("delay", (), (("q", 0),)), "delay cycle count must be a nonnegative integer"),
    (Instruction("delay", (5,), (("q", 0), ("q", 1))), r"'delay' acts on 1 qubit\(s\), got 2"),
    (Instruction("barrier", (), (("q", 0),), (), ("c", 0)), "a barrier cannot be conditioned"),
    (Instruction("frob", (), (("q", 0),)), "undeclared gate 'frob'"),
    (Instruction("h", (), (("q", 0, 1),)),
     r"operands must be a tuple of \(register, index\) tuples"),
    (Instruction("measure", (), (("q", 0),), (("c",),)),
     r"operands must be a tuple of \(register, index\) tuples, got \(\('c',\),\)"),
    (Instruction("rz", (math.inf,), (("q", 0),)), "parameter inf is not a finite real number"),
    (Instruction("rz", (math.nan,), (("q", 0),)), "parameter nan is not a finite real number"),
    (Instruction("rz", ("a",), (("q", 0),)), "parameter 'a' is not a finite real number"),
    (Instruction("u3", (0.1, 0.2, -math.inf), (("q", 0),)), "parameter -inf is not a finite"),
    (Instruction("rz", [0.5], (("q", 0),)), r"parameters must be a tuple, got \[0.5\]"),
    (Instruction("x", (), (("q", 0),), (), ("c",)),
     r"an if condition must be a \(register, integer\) pair, got \('c',\)"),
    (Instruction("x", (), (("q", 0),), (), ("c", 1, 2)),
     r"an if condition must be a \(register, integer\) pair, got \('c', 1, 2\)"),
    (Instruction("x", (), (("q", 0),), (), "c1"),
     r"an if condition must be a \(register, integer\) pair, got 'c1'"),
    (Instruction("x", (), (("q", 0),), (), ["c", 1]),
     r"an if condition must be a \(register, integer\) pair, got \['c', 1\]"),
    (Instruction("x", (), (("q", 0),), (), ("c", 1.0)), "if value 1.0 is not an integer"),
    (Instruction("x", (), (("q", 0),), (), ("c", -1)), "if value -1 is negative"),
    (Instruction("h", (), (("q", True),)), "index True of 'q' is not an int"),
    (Instruction("measure", (), (("q", 0),), (("c", 1.0),)), "index 1.0 of 'c' is not an int"),
    (Instruction("h", (), [("q", 1)]), r"operands must be a tuple of \(register, index\) tuples"),
    (Instruction("h", (), (["q", 1],)), r"operands must be a tuple of \(register, index\) tuples"),
    (Instruction("rz", (Fraction(1, 3),), (("q", 0),)),
     r"parameter Fraction\(1, 3\) is not equal to a double"),
    (Instruction("rz", (2**53 + 1,), (("q", 0),)), "parameter 9007199254740993 is not equal to a double"),
    (Instruction("h", (), (("r", 0),)), "undeclared register 'r'"),
    (Instruction("h", (), (("c", 0),)), "'c' is not a quantum register"),
    (Instruction("cx", (), (("q", 1), ("q", 1))), "duplicate qubit operand in 'cx'"),
    (Instruction("measure", (), (("q", None),), (("c", 0),)), "index None of 'q' is not an int"),
    (Instruction("bell", (), (("q", 0), ("q", 1))), "undeclared gate 'bell'"),
])
def test_an_instruction_that_would_not_read_back_is_refused(instr, message):
    c = Circuit(registers=(Register("q", "q", 2), Register("c", "c", 1)),
                instructions=(Instruction("h", (), (("q", 0),)), instr))
    with pytest.raises(QasmError, match=f"^instruction 1: {message}"):
        print_qasm(c)


def test_a_macro_call_and_a_register_wide_statement_print_expanded():
    text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nopaque o a;\ngate bell a,b {\n  h a;\n'
            "  cx a,b;\n}\nqreg q[2];\ncreg c[2];\nbell q[0],q[1];\nmeasure q -> c;\n")
    assert print_qasm(parse_qasm(text)) == (
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n"
        "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n")


def test_equal_instructions_print_their_own_lines():
    # equal numbers of other types, or zeros of other signs, print
    # differently; each line must be the one the instruction prints alone
    q0, q1 = ("q", 0), ("q", 1)
    instrs = [
        Instruction("rz", (1.0,), (q0,)), Instruction("rz", (1,), (q0,)),
        Instruction("rz", (True,), (q0,)), Instruction("rz", (1.0,), (q0,)),
        Instruction("rz", (0.0,), (q0,)), Instruction("rz", (-0.0,), (q0,)),
        Instruction("h", (), (q1,)),
        Instruction("x", (), (q0,), (), ("c", 1)), Instruction("x", (), (q0,), (), ("c", True)),
        Instruction("measure", (), (q0,), (("c", 1),)),
    ]
    regs = (Register("q", "q", 2), Register("c", "c", 2))
    alone = [print_qasm(Circuit(registers=regs, instructions=(i,))).splitlines()[-1]
             for i in instrs]
    assert print_qasm(Circuit(registers=regs, instructions=tuple(instrs))).splitlines()[3:] == alone
    assert alone[:3] == ["rz(1.0) q[0];", "rz(1) q[0];", "rz(1) q[0];"]
    assert alone[4:6] == ["rz(0.0) q[0];", "rz(-0.0) q[0];"]
    assert alone[7:9] == ["if(c==1) x q[0];", "if(c==1) x q[0];"]


@pytest.mark.parametrize("twin, instr", [
    (Instruction("h", (), (("q", 1),)), Instruction("h", (), (("q", True),))),
    (Instruction("h", (), (("q", 1),)), Instruction("h", (), (("q", 1.0),))),
    (Instruction("measure", (), (("q", 0),), (("c", 1),)),
     Instruction("measure", (), (("q", 0),), (("c", 1.0),))),
    (Instruction("x", (), (("q", 0),), (), ("c", 1)), Instruction("x", (), (("q", 0),), (), ("c", 1.0))),
])
def test_an_instruction_equal_to_one_that_passed_is_still_checked(twin, instr):
    # the memo and Circuit.resolve meet the twin first; the instruction,
    # equal to it, has an index or if value of another type
    c = Circuit(registers=(Register("q", "q", 2), Register("c", "c", 2)), instructions=(twin, instr))
    with pytest.raises(QasmError, match="^instruction 1: "):
        print_qasm(c)
    with pytest.raises(QasmError, match="^instruction 1: "):
        c.resolve()


def test_numpy_scalars_print_as_the_numbers_they_hold():
    c = Circuit(registers=(Register("q", "q", 1),), instructions=(
        Instruction("rz", (np.float64(0.5),), (("q", 0),)),
        Instruction("u3", (np.float32(0.25), np.int64(2), -1), (("q", 0),)),
    ))
    text = print_qasm(c)
    assert text.splitlines()[-2:] == ["rz(0.5) q[0];", "u3(0.25,2,-1) q[0];"]
    assert parse_qasm(text) == c


class _UnhashableInt(int):
    __hash__ = None


def test_an_if_value_that_cannot_be_hashed_prints_and_reads_back():
    # Circuit.resolve accepts the value, so the printer's memo must skip it
    regs = (Register("q", "q", 1), Register("c", "c", 1))
    c = Circuit(registers=regs, instructions=(
        Instruction("x", (), (("q", 0),), (), ("c", _UnhashableInt(1))),
        Instruction("x", (), (("q", 0),), (), ("c", 1)),
    ))
    c.resolve()
    text = print_qasm(c)
    assert text.splitlines()[-2:] == ["if(c==1) x q[0];", "if(c==1) x q[0];"]
    assert parse_qasm(text) == c
