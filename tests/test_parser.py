"""Parser behavior: statement forms, expression folding, and errors."""

import gc
import itertools
import math
import re
import sys
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from qflow import euler, parser
from qflow.binio import encode_binary
from qflow.circuit import SHAPES, Circuit, Instruction
from qflow.cli import main
from qflow.errors import QasmError, QFlowError
from qflow.gates import LIBRARY
from qflow.parser import (MAX_EXPANSION_DEPTH, MAX_EXPANSION_INSTRUCTIONS, MAX_EXPR_DEPTH,
                          gate_template, parse_qasm)
from qflow.printer import print_qasm

from conftest import adder4_qasm, bell_qasm, random_general_qasm
from oracles import circuit_unitary, phase_distance


class TestBasicPrograms:
    def test_bell_statement_mapping(self):
        c = parse_qasm(
            "OPENQASM 2.0; qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1]; measure q -> c;"
        )
        assert [r.name for r in c.registers] == ["q", "c"]
        assert [i.opcode for i in c.instructions] == ["h", "cx", "measure", "measure"]
        assert c.instructions[1].qubits == (("q", 0), ("q", 1))
        # a register-wide measure is one measure per wire
        assert [(i.qubits, i.clbits) for i in c.instructions[2:]] == [
            ((("q", 0),), (("c", 0),)), ((("q", 1),), (("c", 1),))]

    def test_parameter_folding(self):
        c = parse_qasm("OPENQASM 2.0; qreg q[1]; u3(pi/2,0,pi) q[0];")
        assert c.instructions[0].params == (1.5707963267948966, 0.0, 3.141592653589793)

    def test_expression_grammar(self):
        c = parse_qasm(
            "OPENQASM 2.0; qreg q[1]; "
            "u1(3*pi/4) q[0]; u1(-pi) q[0]; u1(2^3) q[0]; u1((1+2)*2) q[0]; "
            "u1(sin(pi/6)) q[0]; u1(sqrt(4)) q[0]; u1(1e-3) q[0]; u1(.5) q[0];"
        )
        vals = [i.params[0] for i in c.instructions]
        assert vals[0] == pytest.approx(3 * math.pi / 4, abs=0)
        assert vals[1] == -math.pi
        assert vals[2] == 8.0
        assert vals[3] == 6.0
        assert vals[4] == pytest.approx(0.5, abs=1e-15)
        assert vals[5] == 2.0
        assert vals[6] == 1e-3
        assert vals[7] == 0.5

    def test_delay_statement(self):
        c = parse_qasm("OPENQASM 2.0; qreg q[1]; delay q[0], 100;")
        instr = c.instructions[0]
        assert instr == Instruction("delay", (100,), (("q", 0),))
        assert isinstance(instr.params[0], int)

    def test_u_and_cx_normalize(self):
        c = parse_qasm("OPENQASM 2.0; qreg q[2]; U(0,0,0) q[0]; CX q[0],q[1];")
        assert [i.opcode for i in c.instructions] == ["u3", "cx"]

    def test_conditional(self):
        c = parse_qasm(
            "OPENQASM 2.0; qreg q[1]; creg c[2]; if(c==3) x q[0]; if(c==0) measure q[0] -> c[0];"
        )
        assert c.instructions[0].condition == ("c", 3)
        assert c.instructions[1].condition == ("c", 0)
        assert c.instructions[1].opcode == "measure"

    def test_barrier_and_reset(self):
        c = parse_qasm("OPENQASM 2.0; qreg q[3]; barrier q[0],q[2]; reset q[1]; barrier q;")
        assert c.instructions[0].qubits == (("q", 0), ("q", 2))
        assert c.instructions[1].opcode == "reset"
        assert c.instructions[2].qubits == (("q", 0), ("q", 1), ("q", 2))

    def test_comments_and_whitespace(self):
        c = parse_qasm(
            "// header comment\nOPENQASM 2.0;\n\n qreg q[1]; // trailing\n h q[0];\n"
        )
        assert len(c.instructions) == 1


class TestGateDefs:
    def test_macro_definition_and_call(self):
        c = parse_qasm(
            "OPENQASM 2.0; qreg q[2]; gate bell a,b { h a; cx a,b; } bell q[0],q[1];"
        )
        assert c.instructions == (Instruction("h", (), (("q", 0),)),
                                  Instruction("cx", (), (("q", 0), ("q", 1))))

    def test_parameterized_macro(self):
        c = parse_qasm(
            "OPENQASM 2.0; qreg q[1]; gate rot(a,b) x0 { rz(a/2) x0; ry(b+pi) x0; } rot(1.0,2.0) q[0];"
        )
        assert [(i.opcode, i.params) for i in c.instructions] == [("rz", (0.5,)),
                                                                  ("ry", (2.0 + math.pi,))]

    def test_opaque_declaration_emits_nothing(self):
        c = parse_qasm("OPENQASM 2.0; qreg q[1]; opaque magic(theta) a;")
        assert c == Circuit(c.registers, ())

    def test_qelib1_three_qubit_macros(self):
        c = parse_qasm(
            'OPENQASM 2.0; include "qelib1.inc"; qreg q[3]; ccx q[0],q[1],q[2]; cswap q[0],q[1],q[2];'
        )
        assert len(c.instructions) == 15 + 17
        assert {i.opcode for i in c.instructions} == {"h", "t", "tdg", "cx"}

    def test_ccx_requires_include(self):
        with pytest.raises(QasmError, match="undeclared gate 'ccx'"):
            parse_qasm("OPENQASM 2.0; qreg q[3]; ccx q[0],q[1],q[2];")

    def test_gate_body_rejects_measure(self):
        with pytest.raises(QasmError, match="not allowed inside a gate body"):
            parse_qasm("OPENQASM 2.0; qreg q[1]; creg c[1]; gate bad a { measure a -> c; }")


class TestErrors:
    @pytest.mark.parametrize(
        "src,fragment",
        [
            ("OPENQASM 3.0; qreg q[1];", "unsupported version"),
            ("qreg q[1];", "OPENQASM"),
            ("OPENQASM 2.0; h q[0];", "undeclared register"),
            ("OPENQASM 2.0; qreg q[2]; h q[5];", "out of range"),
            ("OPENQASM 2.0; qreg q[2]; cx q[0];", "acts on 2 qubit"),
            ("OPENQASM 2.0; qreg q[1]; u3(1,2) q[0];", "takes 3 parameter"),
            ("OPENQASM 2.0; qreg q[2]; cx q[0],q[0];", "duplicate qubit"),
            ("OPENQASM 2.0; qreg q[1]; frob q[0];", "undeclared gate"),
            ("OPENQASM 2.0; qreg q[1]; qreg q[2];", "redefinition"),
            ("OPENQASM 2.0; creg c[1]; qreg q[1]; measure q[0] -> q[0];", "not a classical"),
            ('OPENQASM 2.0; include "other.inc";', "not supported"),
            ("OPENQASM 2.0; qreg q[1]; delay q[0], -5;", "nonnegative integer"),
            ("OPENQASM 2.0; qreg q[0];", "size >= 1"),
            ("OPENQASM 2.0; qreg q[1]; u1(1/0) q[0];", "invalid constant"),
            ("OPENQASM 2.0; qreg q[2]; creg c[3]; measure q -> c;", "size mismatch"),
        ],
    )
    def test_error_cases(self, src, fragment):
        with pytest.raises(QasmError, match=fragment):
            parse_qasm(src)

    def test_error_carries_position(self):
        try:
            parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[3];\n")
        except QasmError as exc:
            assert exc.line == 3
            assert exc.col is not None
        else:
            pytest.fail("expected QasmError")

    def test_determinism(self):
        src = bell_qasm()
        assert parse_qasm(src) == parse_qasm(src)


@pytest.mark.parametrize("expr", ["1e400", "9" * 400, "1e300*1e300", "-1e300*1e300", "(-8)^0.5"],
                         ids=["1e400", "400 nines", "product", "negated product", "complex"])
def test_non_finite_parameter_is_a_qasm_error(expr):
    # unchecked, these parse to inf (or a complex number) and fail later in math.cos
    with pytest.raises(QasmError):
        parse_qasm(f"OPENQASM 2.0; qreg q[1]; rx({expr}) q[0];")


@pytest.mark.parametrize("expr", ["(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1",
                                  "2" + "^2" * 3000], ids=["parentheses", "minus", "power"])
def test_deeply_nested_expression_exits_as_parse_error(expr, tmp_path, capsys):
    path = tmp_path / "deep.qasm"
    path.write_text(f"OPENQASM 2.0;\nqreg q[1];\nrx({expr}) q[0];\n")
    assert main(["analyze", str(path)]) == 1
    assert f"nested deeper than {MAX_EXPR_DEPTH}" in capsys.readouterr().err


def test_nesting_below_the_bound_parses():
    depth = MAX_EXPR_DEPTH - 1
    c = parse_qasm(f"OPENQASM 2.0; qreg q[1]; rx({'(' * depth}1{')' * depth}) q[0];")
    assert c.instructions[0].params == (1.0,)


_H = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n"
_LONG = "9" * 5000  # more digits than int() reads from a string by default


@pytest.mark.parametrize("statement, col", [
    (f"qreg r[{_LONG}];", 8), (f"h q[{_LONG}];", 5), (f"cx q[0],q[{_LONG}];", 11),
    (f"rz(0.5) q[{_LONG}];", 11), (f"measure q[{_LONG}] -> c[0];", 11),
    (f"if(c=={_LONG}) x q[0];", 7), (f"delay q[0], {_LONG};", 13),
], ids=["register size", "wire index", "second wire index", "index after arguments",
        "measured wire", "if value", "delay count"])
def test_an_integer_literal_too_long_for_int_is_a_qasm_error(statement, col, tmp_path, capsys):
    with pytest.raises(QasmError) as info:
        parse_qasm(_H + statement)
    assert str(info.value) == f"line 4, col {col}: integer literal of 5000 digits is too long"
    path = tmp_path / "long.qasm"
    path.write_text(_H + statement)
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_a_delay_count_too_large_for_a_double_is_a_qasm_error(tmp_path, capsys):
    """Circuit.resolve takes a delay count that is finite as a double, so the
    parser refuses a larger one at its token."""
    top = int(sys.float_info.max)
    assert parse_qasm(_H + f"delay q[0], {top};").resolve().wires == ((0,),)
    for count in ("9" * 400, str(2 ** 1024)):
        with pytest.raises(QasmError) as info:
            parse_qasm(_H + f"delay q[0], {count};")
        assert str(info.value) == (f"line 4, col 13: delay cycle count of {len(count)} digits "
                                   "is out of range")
        path = tmp_path / "delay.qasm"
        path.write_text(_H + f"delay q[0], {count};")
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"

# One malformed input (or more) per error the parser raises, with the full
# message: the "line L, col C: " prefix is part of what is pinned. A
# constant-folding error is placed at its operator or function name.
PINNED_ERRORS = [
    # tokens and header
    (_H + "h q[0]; @", "line 4, col 9: unexpected character '@'"),
    (_H + 'include "qelib1.inc\n', "line 4, col 9: unexpected character '\"'"),
    ("qreg q[1];", "line 1, col 1: expected 'OPENQASM 2.0;' header"),
    ("OPENQASM 3.0;", "line 1, col 10: unsupported version header 'OPENQASM 3.0'"),
    ("OPENQASM", "line 1, col 9: unsupported version header 'OPENQASM '"),
    ("OPENQASM 2.0", "line 1, col 13: expected ';', found ''"),
    # declarations
    (_H + "5;", "line 4, col 1: expected statement, found '5'"),
    (_H + "qreg 5;", "line 4, col 6: expected register name, found '5'"),
    (_H + "qreg r 5;", "line 4, col 8: expected '[', found '5'"),
    (_H + "qreg r[x];", "line 4, col 8: expected register size, found 'x'"),
    (_H + "qreg r[1;", "line 4, col 9: expected ']', found ';'"),
    (_H + "qreg r[1]", "line 4, col 10: expected ';', found ''"),
    (_H + "qreg r[0];", "line 4, col 8: register 'r' must have size >= 1"),
    (_H + "creg r[16777217];", "line 4, col 8: register 'r' must have size <= 16777216"),
    (_H + "creg r[1180591620717411303424];\nif(r==1) x q[0];",
     "line 4, col 8: register 'r' must have size <= 16777216"),
    (_H + "qreg q[1];", "line 4, col 6: redefinition of 'q'"),
    (_H + "gate g a { h a; }\ncreg g[1];", "line 5, col 6: redefinition of 'g'"),
    (_H + "include 5;", "line 4, col 9: expected include path, found '5'"),
    (_H + 'include "other.inc";',
     "line 4, col 9: include 'other.inc' is not supported (only the embedded qelib1.inc)"),
    # gate definitions
    (_H + "gate 5 a { }", "line 4, col 6: expected gate name, found '5'"),
    (_H + "gate q a { }", "line 4, col 6: redefinition of 'q'"),
    (_H + "gate g a { }\ngate g b { }", "line 5, col 6: redefinition of 'g'"),
    (_H + "gate g(5) a { }", "line 4, col 8: expected identifier, found '5'"),
    (_H + "gate g(t a { }", "line 4, col 10: expected ')', found 'a'"),
    (_H + "gate g(t,t) a { }", "line 4, col 6: duplicate formal argument in gate 'g'"),
    (_H + "gate g a,a { }", "line 4, col 6: duplicate formal argument in gate 'g'"),
    (_H + "gate g a h a; }", "line 4, col 10: expected '{', found 'h'"),
    (_H + "gate g a { 5; }", "line 4, col 12: expected gate body statement, found '5'"),
    (_H + "gate g a { h b; }", "line 4, col 14: 'b' is not a formal qubit of gate 'g'"),
    (_H + "gate g a { h 5; }", "line 4, col 14: expected formal qubit, found '5'"),
    (_H + "gate g a,b { cx a,a; }", "line 4, col 14: duplicate qubit operand"),
    (_H + "gate g a { measure a -> c[0]; }",
     "line 4, col 12: 'measure' is not allowed inside a gate body"),
    (_H + "gate g a { reset a; }", "line 4, col 12: 'reset' is not allowed inside a gate body"),
    (_H + "gate g a { delay a, 5; }", "line 4, col 12: 'delay' is not allowed inside a gate body"),
    (_H + "gate g a { if(c==1) x a; }", "line 4, col 12: 'if' is not allowed inside a gate body"),
    (_H + "gate g a { frob a; }", "line 4, col 12: undeclared gate 'frob'"),
    (_H + "gate g a { g a; }", "line 4, col 12: undeclared gate 'g'"),
    (_H + "gate g a { rz a; }", "line 4, col 12: gate 'rz' takes 1 parameter(s), got 0"),
    (_H + "gate g a,b { cx a; }", "line 4, col 14: gate 'cx' acts on 2 qubit(s), got 1"),
    (_H + "gate g a { h a }", "line 4, col 16: expected ';', found '}'"),
    (_H + "gate g(t) a { rz(s) a; }", "line 4, col 18: unknown symbol 's' in expression"),
    (_H + "opaque q a;", "line 4, col 8: redefinition of 'q'"),
    (_H + "opaque o a\nh q[0];", "line 5, col 1: expected ';', found 'h'"),
    (_H + "opaque o(t a;", "line 4, col 12: expected ')', found 'a'"),
    # if
    (_H + "if c==1) x q[0];", "line 4, col 4: expected '(', found 'c'"),
    (_H + "if(5==1) x q[0];", "line 4, col 4: expected classical register, found '5'"),
    (_H + "if(q==1) x q[0];", "line 4, col 4: 'q' is not a declared classical register"),
    (_H + "if(d==1) x q[0];", "line 4, col 4: 'd' is not a declared classical register"),
    (_H + "if(c=1) x q[0];", "line 4, col 5: unexpected character '='"),
    (_H + "if(c==x) x q[0];", "line 4, col 7: expected comparison value, found 'x'"),
    (_H + "if(c==1 x q[0];", "line 4, col 9: expected ')', found 'x'"),
    (_H + "if(c==1) 5;", "line 4, col 10: expected gate name, found '5'"),
    (_H + "if(c==1) barrier q;", "line 4, col 10: undeclared gate 'barrier'"),
    # measure, reset, delay, barrier
    (_H + "measure q[0] c[0];", "line 4, col 14: expected '->', found 'c'"),
    (_H + "measure q[0] -> q[0];", "line 4, col 17: 'q' is not a classical register"),
    (_H + "measure c[0] -> c[0];", "line 4, col 9: 'c' is not a quantum register"),
    (_H + "qreg r[3];\nmeasure r -> c;",
     "line 5, col 1: measure broadcast size mismatch: r has 3 wire(s), c has 2"),
    (_H + "measure q -> c[0];",
     "line 4, col 1: measure broadcast size mismatch: q has 2 wire(s), c has 1"),
    (_H + "reset q[0]", "line 4, col 11: expected ';', found ''"),
    (_H + "delay q[0], -5;", "line 4, col 13: delay cycle count must be a nonnegative integer"),
    (_H + "delay q[0] 5;", "line 4, col 12: expected ',', found '5'"),
    (_H + "delay q[0], 5", "line 4, col 14: expected ';', found ''"),
    (_H + "barrier q[0] q[1];", "line 4, col 14: expected ';', found 'q'"),
    (_H + "barrier 5;", "line 4, col 9: expected register reference, found '5'"),
    # gate calls and operands
    (_H + "frob q[0];", "line 4, col 1: undeclared gate 'frob'"),
    (_H + "u3(1,2) q[0];", "line 4, col 1: gate 'u3' takes 3 parameter(s), got 2"),
    (_H + "h(1) q[0];", "line 4, col 1: gate 'h' takes 0 parameter(s), got 1"),
    (_H + "u1(1 q[0];", "line 4, col 6: expected ')', found 'q'"),
    (_H + "cx q[0];", "line 4, col 1: gate 'cx' acts on 2 qubit(s), got 1"),
    (_H + "h q[0],q[1];", "line 4, col 1: gate 'h' acts on 1 qubit(s), got 2"),
    (_H + "cx q[0],q[0];", "line 4, col 1: duplicate qubit operand"),
    (_H + "cx q[1],q;", "line 4, col 1: duplicate qubit operand"),
    (_H + "qreg r[3];\ncx q,r;", "line 5, col 1: register broadcast requires equal register sizes"),
    (_H + "h q[0]", "line 4, col 7: expected ';', found ''"),
    (_H + "h d[0];", "line 4, col 3: undeclared register 'd'"),
    (_H + "h c[0];", "line 4, col 3: 'c' is not a quantum register"),
    (_H + "h q[2];", "line 4, col 5: index 2 out of range for q[2]"),
    (_H + "h q[x];", "line 4, col 5: expected wire index, found 'x'"),
    (_H + "h q[0;", "line 4, col 6: expected ']', found ';'"),
    (_H + "h 5;", "line 4, col 3: expected register reference, found '5'"),
    # expressions
    (_H + "u1() q[0];", "line 4, col 1: gate 'u1' takes 1 parameter(s), got 0"),
    (_H + "u1(+1) q[0];", "line 4, col 4: expected expression, found '+'"),
    (_H + "u1(x) q[0];", "line 4, col 4: unknown symbol 'x' in expression"),
    (_H + "u1(sin 1) q[0];", "line 4, col 8: expected '(', found '1'"),
    (_H + "u1(sin(1) q[0];", "line 4, col 11: expected ')', found 'q'"),
    (_H + "u1((1+2) q[0];", "line 4, col 10: expected ')', found 'q'"),
    (_H + "u1(1e400) q[0];", "line 4, col 4: number 1e400 is out of range"),
    (_H + "u1(1/0) q[0];", "line 4, col 5: invalid constant expression: float division by zero"),
    (_H + "u1(1e300*1e300) q[0];",
     "line 4, col 9: invalid constant expression: result inf is not finite"),
    (_H + "u1(ln(0)) q[0];", "line 4, col 4: invalid constant expression: math domain error"),
    (_H + "u1(sqrt(-1)) q[0];", "line 4, col 4: invalid constant expression: math domain error"),
    (_H + "u1(1e308+1e308) q[0];",
     "line 4, col 9: invalid constant expression: result inf is not finite"),
    (_H + "u1(1e308-(-1e308)) q[0];",
     "line 4, col 9: invalid constant expression: result inf is not finite"),
    (_H + "u1((-8)^0.5) q[0];",
     "line 4, col 8: invalid constant expression: must be real number, not complex"),
    (_H + "u1(10^400) q[0];",
     "line 4, col 6: invalid constant expression: (34, 'Numerical result out of range')"),
    (_H + "u1(" + "(" * 200 + "1" + ")" * 200 + ") q[0];",
     "line 4, col 104: expression nested deeper than 100 levels"),
    (_H + "u1(" + "-" * 200 + "1) q[0];",
     "line 4, col 104: expression nested deeper than 100 levels"),
    (_H + "gate g(t) a { rz(1/0) a; }",
     "line 4, col 19: invalid constant expression: float division by zero"),
    (_H + "gate g(t) a {\n  rz(t*(1e300*1e300)) a; }",
     "line 5, col 14: invalid constant expression: result inf is not finite"),
]


def test_barrier_may_repeat_a_wire_in_a_gate_body_as_at_top_level():
    # a barrier only orders operations, so a repeated wire changes nothing
    body = parse_qasm(_H + "gate g a { barrier a,a; }\ng q[0];")
    top = parse_qasm(_H + "barrier q[0],q[0];")
    assert body.instructions == top.instructions
    assert top.instructions[0].qubits == (("q", 0), ("q", 0))


@pytest.mark.parametrize("src,message", PINNED_ERRORS, ids=lambda v: repr(v)[-48:])
def test_pinned_error_message(src, message):
    with pytest.raises(QasmError) as info:
        parse_qasm(src)
    assert str(info.value) == message


# A program with every statement form, plus two corpus texts, to mutate.
EVERY_FORM = """\
OPENQASM 2.0;
include "qelib1.inc";
// every statement form
qreg q[3];
creg c[3];
gate rot(a,b) x,y { rz(-a/2+b*pi) x; cx x,y; barrier x,y; U(sin(a)^2,ln(b),sqrt(2)) y; CX x,y; }
opaque magic(t) a;
rot(pi/4,1.5) q[0],q[1];
ccx q[0],q[1],q[2];
barrier q;
reset q[2];
delay q[1], 20;
measure q -> c;
if(c==1) u1(-(2)^0.5*cos(.5e1)) q[0];
if(c==2) measure q[1] -> c[1];
"""

_MUTATION_SEEDS = (EVERY_FORM, bell_qasm(), adder4_qasm())
_PIECES = ("(", ")", "[", "]", "{", "}", ";", ",", "->", "==", "-", "^", "/", "pi", "q", "c",
           "a", "gate", "opaque", "barrier", "measure", "reset", "delay", "if", "include",
           "OPENQASM", "0", "7", "2.0", "1e999", "sin", "@", '"', "\n", "//")


@st.composite
def _mutated_source(draw, seeds=st.sampled_from(_MUTATION_SEEDS)):
    text = draw(seeds)
    i = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(("truncate", "delete", "insert")))
    if how == "truncate":
        return text[:i]
    if how == "delete":
        return text[:i] + text[draw(st.integers(i, min(len(text), i + 40))):]
    piece = draw(st.sampled_from(_PIECES) | st.characters(max_codepoint=0x7F))
    return text[:i] + piece + text[i:]


@given(_mutated_source())
@settings(max_examples=400, deadline=None)
def test_mutated_source_raises_only_qasm_error(text):
    try:
        parse_qasm(text)
    except QasmError:
        pass


# -- the fast path for library gate calls --------------------------------------

# the call forms the fast path reads, and near misses that it must leave to
# the full grammar
FAST_FORMS = """\
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[1];
rz(-pi/2) q[0]; u3(pi,-0,1e-3) q[1]; cx q[0], q[1]; U(0,0,.5) q[2]; CX q[1],q[2];
crz(pi/4.0) q[0],q[2]; u2(-1.5e2,pi/3) q[1]; rx(-pi) q[0]; swap q[2],q[0];
h q[0] ; rz (1) q[0]; u1( 1) q[1]; x q; if(c==1) rz(pi) q[1]; // a comment
"""


def _outcome(text: str):
    """What parse_qasm makes of ``text``: the error, or the printed text
    and the NWQB bytes (or encoding error) of the circuit it returns."""
    try:
        circuit = parse_qasm(text)
    except QasmError as exc:
        return str(exc)
    try:
        blob = encode_binary(circuit)
    except QFlowError as exc:
        blob = str(exc)
    return print_qasm(circuit), blob


def _full_grammar_outcome(text: str):
    """``_outcome`` with the fast path off: every statement is tokenized."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "_CALL_RE", re.compile(r"(?!)"))
        return _outcome(text)


_GENERAL_TEXTS = st.builds(random_general_qasm, st.integers(1, 4), st.integers(1, 12),
                           st.integers(0, 2**32 - 1))


@given(st.one_of(_mutated_source(),
                 _mutated_source(st.sampled_from((FAST_FORMS,)) | _GENERAL_TEXTS),
                 _GENERAL_TEXTS))
@settings(max_examples=300, deadline=None)
def test_the_fast_path_reads_what_the_full_grammar_reads(text):
    assert _outcome(text) == _full_grammar_outcome(text)


@pytest.mark.parametrize("src, message", [
    # a bad character after many fast-path statements comes before an
    # earlier parse error, and before one after those statements
    (_H + "u1(pi/0) q[0];\n" + "h q[0];\n" * 300 + "@",
     "line 305, col 1: unexpected character '@'"),
    (_H + "h q[0];\n" * 300 + "h q[9];\n" + "cx q[0],q[1];\n" * 300 + "x q[1]; `",
     "line 605, col 9: unexpected character '`'"),
    (_H + "u1(pi/0) q[0];", "line 4, col 6: invalid constant expression: float division by zero"),
    (_H + "u1(-pi/0.0) q[0];",
     "line 4, col 7: invalid constant expression: float division by zero"),
    (_H + "u1(pi/1e-320) q[0];",
     "line 4, col 6: invalid constant expression: result inf is not finite"),
    (_H + "u1(-1e999) q[0];", "line 4, col 5: number 1e999 is out of range"),
    (_H + "h q[0];\nh q[0],q[1];", "line 5, col 1: gate 'h' acts on 1 qubit(s), got 2"),
    (_H + "h q[0];\ncx q[1],q[1];", "line 5, col 1: duplicate qubit operand"),
    (_H + "cx q[0],c[1];", "line 4, col 9: 'c' is not a quantum register"),
    (_H + "cx q[0],q[2];", "line 4, col 11: index 2 out of range for q[2]"),
    (_H + "cx q[0],r[0];", "line 4, col 9: undeclared register 'r'"),
    (_H + "u3(pi,pi) q[0];", "line 4, col 1: gate 'u3' takes 3 parameter(s), got 2"),
    (_H + "gate rz a { x a; }\nrz(pi) q[0];",
     "line 5, col 1: gate 'rz' takes 0 parameter(s), got 1"),
    (_H + "gate cx a { x a; }\ncx q[0],q[1];",
     "line 5, col 1: gate 'cx' acts on 1 qubit(s), got 2"),
], ids=lambda v: repr(v)[-48:])
def test_a_fast_path_text_keeps_the_grammar_error(src, message):
    with pytest.raises(QasmError) as info:
        parse_qasm(src)
    assert str(info.value) == message == _full_grammar_outcome(src)


def test_a_macro_shadows_the_library_gate_it_names():
    circuit = parse_qasm(_H + "gate h a { x a; }\nh q[0];")
    assert circuit.instructions == (Instruction("x", (), (("q", 0),)),)


def test_fast_path_arguments_fold_bit_for_bit():
    c = parse_qasm(_H + "u3(-pi/2,-0,-pi) q[0]; rz(pi/3) q[1];")
    assert [p.hex() for p in c.instructions[0].params] == [
        ((-math.pi) / 2.0).hex(), (-0.0).hex(), (-math.pi).hex()]
    assert c.instructions[1].params[0].hex() == (math.pi / 3.0).hex()


# -- macro expansion and register-wide statements -------------------------------

def test_a_macro_call_expands_in_body_order():
    c = parse_qasm("OPENQASM 2.0; qreg q[3]; gate bell a,b { h a; cx a,b; }"
                   "gate pair a,b,c { bell b,c; x a; bell c,a; } pair q[0],q[1],q[2];")
    assert c.instructions == (
        Instruction("h", (), (("q", 1),)), Instruction("cx", (), (("q", 1), ("q", 2))),
        Instruction("x", (), (("q", 0),)),
        Instruction("h", (), (("q", 2),)), Instruction("cx", (), (("q", 2), ("q", 0))))
    assert [f.name for f in fields(c)] == ["registers", "instructions"]


def test_register_broadcast():
    c = parse_qasm("OPENQASM 2.0; qreg q[3]; h q;")
    assert [i.qubits for i in c.instructions] == [(("q", 0),), (("q", 1),), (("q", 2),)]


def test_two_register_broadcast():
    c = parse_qasm("OPENQASM 2.0; qreg a[2]; qreg b[2]; cx a,b;")
    assert [i.qubits for i in c.instructions] == [
        (("a", 0), ("b", 0)),
        (("a", 1), ("b", 1)),
    ]


def test_mixed_broadcast_fixed_operand():
    c = parse_qasm("OPENQASM 2.0; qreg a[1]; qreg b[3]; cx a[0],b;")
    assert [i.qubits for i in c.instructions] == [
        (("a", 0), ("b", 0)),
        (("a", 0), ("b", 1)),
        (("a", 0), ("b", 2)),
    ]


def test_register_wide_statements_of_every_kind():
    c = parse_qasm("OPENQASM 2.0; qreg q[2]; creg c[2]; creg d[1]; reset q; delay q, 7;"
                   "if(c==2) x q; measure q[1] -> d; gate bell a,b { h a; cx a,b; }"
                   "qreg r[2]; bell q,r;")
    assert [(i.opcode, i.params, i.qubits, i.clbits, i.condition) for i in c.instructions] == [
        ("reset", (), (("q", 0),), (), None), ("reset", (), (("q", 1),), (), None),
        ("delay", (7,), (("q", 0),), (), None), ("delay", (7,), (("q", 1),), (), None),
        ("x", (), (("q", 0),), (), ("c", 2)), ("x", (), (("q", 1),), (), ("c", 2)),
        ("measure", (), (("q", 1),), (("d", 0),), None),
        ("h", (), (("q", 0),), (), None), ("cx", (), (("q", 0), ("r", 0)), (), None),
        ("h", (), (("q", 1),), (), None), ("cx", (), (("q", 1), ("r", 1)), (), None)]


def test_barrier_broadcast_is_single_instruction():
    c = parse_qasm("OPENQASM 2.0; qreg q[3]; qreg r[2]; barrier q, r[1];")
    assert len(c.instructions) == 1
    assert c.instructions[0].qubits == (("q", 0), ("q", 1), ("q", 2), ("r", 1))


def test_condition_propagates_through_macro():
    c = parse_qasm(
        "OPENQASM 2.0; qreg q[2]; creg c[1]; gate gg a,b { h a; cx a,b; } if(c==1) gg q[0],q[1];"
    )
    assert [i.opcode for i in c.instructions] == ["h", "cx"]
    assert all(i.condition == ("c", 1) for i in c.instructions)


def test_condition_skips_a_body_barrier():
    # QASM 2 has no conditioned barrier, so one would not read back
    c = parse_qasm(
        "OPENQASM 2.0; qreg q[2]; creg c[1]; gate inner a,b { barrier a,b; x b; }"
        " gate gg a,b { h a; inner a,b; } if(c==1) gg q[0],q[1];"
    )
    assert [(i.opcode, i.qubits, i.condition) for i in c.instructions] == [
        ("h", (("q", 0),), ("c", 1)), ("barrier", (("q", 0), ("q", 1)), None),
        ("x", (("q", 1),), ("c", 1))]


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
    assert all(i.opcode in LIBRARY for i in c.instructions)
    # the expanded unitary equals a hand expansion built from library gates
    hand = parse_qasm(
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[3];\n"
        "cx q[0],q[1]; rz(0.45) q[1]; cx q[0],q[1];\n"
        "cx q[1],q[2]; rz(0.45) q[2]; cx q[1],q[2];\n"
        "h q[0];\n"
    )
    assert phase_distance(circuit_unitary(hand), circuit_unitary(c)) < 1e-12


def test_a_body_calls_the_gates_defined_before_it():
    # h in the body of g is the library gate: a later macro of the same name
    # does not change it
    c = parse_qasm(_H + "gate g a { h a; }\ngate h a { x a; }\ng q[0];\nh q[1];")
    assert [(i.opcode, i.qubits) for i in c.instructions] == [("h", (("q", 0),)),
                                                              ("x", (("q", 1),))]


def test_parsed_circuits_are_flat(corpus):
    for name, circ in corpus:
        assert all(instr.opcode in SHAPES for instr in circ.instructions), name
        circ.resolve()


@pytest.mark.parametrize("call, message", [
    ("bell q[0];", "col 1: gate 'bell' acts on 2 qubit(s), got 1"),
    ("bell q[0],q[1],q[0];", "col 1: gate 'bell' acts on 2 qubit(s), got 3"),
    ("bell(0.5) q[0],q[1];", "col 1: gate 'bell' takes 0 parameter(s), got 1"),
    ("rot q[0];", "col 1: gate 'rot' takes 1 parameter(s), got 0"),
    ("rot(0.5,0.7) q[0];", "col 1: gate 'rot' takes 1 parameter(s), got 2"),
    ("bell q[1],q[1];", "col 1: duplicate qubit operand"),
    ("if(c==1) bell q[0];", "col 10: gate 'bell' acts on 2 qubit(s), got 1"),
    ("mystery q[0];", "col 1: cannot expand opaque gate 'mystery' (no body)"),
    ("hidden q[0];", "col 1: cannot expand opaque gate 'mystery' (no body)"),
])
def test_a_macro_call_is_checked_before_it_expands(call, message):
    # a short call raised IndexError, and extra qubits or parameters were dropped
    src = (_H + "gate bell a,b { h a; cx a,b; }\ngate rot(t) a { rz(t) a; }\n"
           "opaque mystery a;\ngate hidden a { h a; mystery a; }\n")
    with pytest.raises(QasmError) as info:
        parse_qasm(src + call)
    assert str(info.value) == f"line 8, {message}"


# the macro calls, register-wide operands and declarations that a Circuit
# no longer holds, as text: case -> (text, the parser's error)
_MACROS = ("OPENQASM 2.0;\nqreg q[2];\nqreg r[3];\ncreg c[2];\n"
           "gate bell a,b { h a; cx a,b; }\ngate rot(t) a { rz(t) a; }\n")
_CALL = "line 7, col 1: "
HOSTILE_MACRO_TEXTS = {
    "macro_on_too_few_qubits": (
        _MACROS + "bell q[0];\n", _CALL + "gate 'bell' acts on 2 qubit(s), got 1"),
    "macro_on_too_many_qubits": (
        _MACROS + "bell q[0],q[1],r[0];\n", _CALL + "gate 'bell' acts on 2 qubit(s), got 3"),
    "macro_with_an_extra_param": (
        _MACROS + "bell(0.5) q[0],q[1];\n", _CALL + "gate 'bell' takes 0 parameter(s), got 1"),
    "macro_without_its_param": (
        _MACROS + "rot q[0];\n", _CALL + "gate 'rot' takes 1 parameter(s), got 0"),
    "macro_with_a_clbit": (
        _MACROS + "bell q[0],c[0];\n", "line 7, col 11: 'c' is not a quantum register"),
    "macro_on_one_qubit_twice": (_MACROS + "bell q[1],q[1];\n", _CALL + "duplicate qubit operand"),
    "macro_with_a_non_finite_param": (
        _MACROS + "rot(1e300*1e300) q[0];\n",
        "line 7, col 10: invalid constant expression: result inf is not finite"),
    "macro_on_a_clbit": (
        _MACROS + "rot(0.5) c[0];\n", "line 7, col 10: 'c' is not a quantum register"),
    "wide_macro_size_mismatch": (
        _MACROS + "bell q,r;\n", _CALL + "register broadcast requires equal register sizes"),
    "wide_and_fixed_operand_of_one_register": (
        _MACROS + "cx q[0],q;\n", _CALL + "duplicate qubit operand"),
    "wide_measure_into_one_clbit": (
        _MACROS + "measure q -> c[0];\n",
        _CALL + "measure broadcast size mismatch: q has 2 wire(s), c has 1"),
    "wide_operand_of_an_undeclared_register": (
        _MACROS + "h z;\n", "line 7, col 3: undeclared register 'z'"),
    "register_named_like_a_macro": (
        "OPENQASM 2.0;\ngate bell a,b { h a; cx a,b; }\nqreg bell[3];\n",
        "line 3, col 6: redefinition of 'bell'"),
    "register_named_like_a_qelib1_macro": (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg ccx[1];\n',
        "line 4, col 6: redefinition of 'ccx'"),
    "macro_named_like_a_qelib1_macro": (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\ngate cswap a,b,c { h a; }\n',
        "line 3, col 6: redefinition of 'cswap'"),
    "unsupported_include": (
        'OPENQASM 2.0;\ninclude "other.inc";\nqreg q[3];\n',
        "line 2, col 9: include 'other.inc' is not supported (only the embedded qelib1.inc)"),
    "macro_body_names_a_missing_qubit": (
        "OPENQASM 2.0;\nqreg q[3];\ngate g a { h b; }\ng q[0];\n",
        "line 3, col 14: 'b' is not a formal qubit of gate 'g'"),
    "included_macro_without_its_include": (
        "OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[1],q[2];\n", "line 3, col 1: undeclared gate 'ccx'"),
}

# each command that reads a circuit file, given the path of that file
_READERS = {
    "analyze": lambda path: ["analyze", path],
    "convert": lambda path: ["convert", path, path + ".nwqb"],
    "simulate sv": lambda path: ["simulate", "sv", path],
    "transpile": lambda path: ["transpile", path, "--device", "grid9", "-o", path + ".out.qasm"],
}


@pytest.mark.parametrize("case", sorted(HOSTILE_MACRO_TEXTS))
@pytest.mark.parametrize("reader", ["parse_qasm", *sorted(_READERS)])
def test_hostile_macro_text_is_refused_by_every_reader(reader, case, tmp_path, capsys):
    """parse_qasm raises its QasmError; a command exits 1 with that one line."""
    text, message = HOSTILE_MACRO_TEXTS[case]
    if reader == "parse_qasm":
        with pytest.raises(QasmError) as info:
            parse_qasm(text)
        assert str(info.value) == message
        return
    path = tmp_path / "hostile.qasm"
    path.write_text(text)
    assert main(_READERS[reader](str(path))) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hostile.qasm"]


@pytest.mark.parametrize(
    "body, arg",
    [("a*a", "1e300"), ("1/a", "0"), ("a^a", "1000"), ("(0-a)^0.5", "2")],
    ids=["infinite", "division by zero", "overflow", "complex"],
)
def test_hostile_macro_argument_is_a_qasm_error(body, arg, tmp_path, capsys):
    # finite arguments that make a macro body non-finite or complex used to
    # escape as ValueError, ZeroDivisionError, OverflowError or TypeError
    src = f"OPENQASM 2.0;\nqreg q[1];\ngate g(a) r {{ rx({body}) r; }}\ng({arg}) q[0];\n"
    with pytest.raises(QasmError, match="^line 4, col 1: invalid constant expression"):
        parse_qasm(src)
    path = tmp_path / "hostile.qasm"
    path.write_text(src)
    assert main(["simulate", "sv", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 4, col 1: invalid constant")


def test_macro_expression_error_names_the_gate_and_the_call(tmp_path, capsys):
    src = ("OPENQASM 2.0;\nqreg q[2];\ngate g(a) r { rx(a*a) r; }\ngate outer(a) r { g(a) r; }\n"
           "h q;\ng(1e300) q[0];\nouter(1e300) q[1];\n")
    where = "(in gate 'g')"
    with pytest.raises(QasmError, match=re.escape(where)):
        parse_qasm(src)
    # a call from inside another macro names the innermost gate, at the top-level call
    nested = src.replace("h q;\ng(1e300) q[0];\n", "")
    with pytest.raises(QasmError) as info:
        parse_qasm(nested)
    assert str(info.value) == ("line 5, col 1: invalid constant expression: result inf is not "
                               "finite (in gate 'g')")
    path = tmp_path / "hostile.qasm"
    path.write_text(src)
    assert main(["simulate", "sv", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: line 6, col 1: invalid constant expression: result inf is not finite {where}\n")


def _counting_instructions(monkeypatch) -> list:
    """Patch the parser to record each instruction it builds."""
    built = []

    def instruction(*args):
        built.append(args)
        return Instruction(*args)

    monkeypatch.setattr(parser, "Instruction", instruction)
    return built


def test_expansion_depth_is_bounded_before_any_instruction_is_emitted(monkeypatch):
    chain = [f"gate g{k} a {{ h a; g{k - 1} a; }}" for k in range(1, MAX_EXPANSION_DEPTH + 1)]
    src = "\n".join([_H + "gate g0 a { x a; }", *chain, "x q[1];"])
    assert len(parse_qasm(src + f"\ng{MAX_EXPANSION_DEPTH - 1} q[0];").instructions) == 1001
    built = _counting_instructions(monkeypatch)
    with pytest.raises(QasmError) as info:
        parse_qasm(src + f"\ng{MAX_EXPANSION_DEPTH} q[0];")
    assert str(info.value) == (f"line 1006, col 1: gate expansion exceeded depth "
                               f"{MAX_EXPANSION_DEPTH} while inlining 'g0'")
    assert len(built) == 1  # the x before the call


def test_expansion_size_is_bounded_before_any_instruction_is_emitted(monkeypatch):
    # 30 nested doubling macros would expand to 2**30 instructions
    lines = [_H + "gate g0 a { x a; }"]
    lines += [f"gate g{k} a {{ g{k - 1} a; g{k - 1} a; }}" for k in range(1, 31)]
    built = _counting_instructions(monkeypatch)
    with pytest.raises(QasmError, match=f"^line 35, col 1: gate expansion would emit {2**30} "
                                        f"instructions, more than {MAX_EXPANSION_INSTRUCTIONS}"):
        parse_qasm("\n".join(lines + ["g30 q[0];"]))
    # the budget counts the whole output, not one call
    with pytest.raises(QasmError, match=f"emit {2**20 + 3} instructions, more than"):
        parse_qasm("\n".join(lines + ["x q[0]; h q;", "g20 q[0];"]))
    # as does a register-wide statement
    with pytest.raises(QasmError, match=f"emit {3 * 2**19} instructions, more than"):
        parse_qasm("\n".join(lines + ["qreg r[3];", "g19 r;"]))
    assert len(built) == 3
    assert len(parse_qasm("\n".join(lines[:12] + ["g10 q[0];"] * 2)).instructions) == 2**11


def test_expansion_size_bounds_the_fast_path_statements_at_the_end(monkeypatch):
    """A library call that one regex match reads expands no macro, so the
    bound on the output is checked once more at the end of the text."""
    monkeypatch.setattr(parser, "MAX_EXPANSION_INSTRUCTIONS", 3)
    assert len(parse_qasm(_H + "x q[0];\nh q[1];\ncx q[0],q[1];\n").instructions) == 3
    with pytest.raises(QasmError, match="^gate expansion would emit 4 instructions, more than 3$"):
        parse_qasm(_H + "x q[0];\nh q[1];\ncx q[0],q[1];\nx q[1];\n")


def test_parse_leaves_no_reference_cycle():
    text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[3];\n'
            "gate bell a,b { h a; cx a,b; }\nbell q[0],q[1];\nccx q[0],q[1],q[2];\n"
            "if(c==1) x q[0];\nmeasure q -> c;\ncx q[0],q[1];\n")
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(5):
            parse_qasm(text)
        gc.collect()
        left = [obj for obj in gc.garbage if isinstance(obj, parser._Parser)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


# expression text over the formals {a} and {b}
_LEAVES = (st.sampled_from(["{a}", "{b}", "pi"])
           | st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"({x!r})"))


def _node(inner):
    return (st.builds(lambda x: f"-{x}", inner)
            | st.builds(lambda x, op, y: f"{x}{op}{y}", inner, st.sampled_from("+-*/^"), inner)
            | st.builds(lambda x: f"({x})", inner)
            | st.builds(lambda fn, x: f"{fn}({x})",
                        st.sampled_from(["sin", "cos", "tan", "exp", "ln", "sqrt"]), inner))


def _evaluated(text: str):
    """The parameter that ``text`` gives its one instruction, as hex, or
    the error."""
    try:
        return parse_qasm(text).instructions[0].params[0].hex()
    except QasmError as exc:
        return "invalid constant expression" if "invalid constant" in exc.message else str(exc)


@given(st.recursive(_LEAVES, _node, max_leaves=8), st.floats(-4, 4), st.floats(-1e300, 1e300))
@settings(max_examples=300, deadline=None)
def test_a_macro_body_expression_evaluates_as_it_folds_at_top_level(expr, a, b):
    """At a call, a body expression takes the value, bit for bit, that the
    same expression with the actuals written in folds to at top level."""
    call = (f"OPENQASM 2.0;\nqreg q[1];\ngate g(a,b) r {{ rz({expr.format(a='a', b='b')}) r; }}"
            f"\ng({a!r},{b!r}) q[0];\n")
    top = f"OPENQASM 2.0;\nqreg q[1];\nrz({expr.format(a=f'({a!r})', b=f'({b!r})')}) q[0];\n"
    assert _evaluated(call) == _evaluated(top)


def test_a_negative_constant_base_is_bracketed_as_written():
    c = parse_qasm("OPENQASM 2.0;\nqreg r[1];\ngate g(a) r { rz((-2)^a) r; rz(-2^a) r; }\ng(2) r[0];\n")
    assert [i.params for i in c.instructions] == [(4.0,), (-4.0,)]


# ordinary angles, signed zeros, multiples of pi (2*pi and beyond are where
# euler.reduce_angle starts to reduce parameters in parser._REDUCED), huge
# and non-finite ones
_TEMPLATE_ANGLES = (0.0, -0.0, 0.3, -1.7, math.pi, -math.pi, math.pi / 2, 2 * math.pi,
                    -2 * math.pi, 3 * math.pi, 4 * math.pi, 1e16, -3e12, 1.7976931348623157e308,
                    math.inf, math.nan)


def _call_outcome(fn, *args) -> str:
    """The repr of what ``fn(*args)`` returns, which tells -0.0 from 0.0 and
    1 from 1.0, or the type and message of what it raises."""
    try:
        return repr(fn(*args))
    except (QFlowError, ValueError) as exc:  # reduce_angle(inf) is a math domain error
        return f"{type(exc).__name__}: {exc}"


def _walked(body: tuple, reduced: tuple, params: tuple) -> tuple:
    """gate_template as it was: reduce the parameters in ``reduced``, then
    walk the trees."""
    return parser._evaluated(body, tuple(euler.reduce_angle(p) if j in reduced else p
                                         for j, p in enumerate(params)))


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_a_compiled_template_gives_the_tree_walks_gates_bit_for_bit(name):
    """gate_template's compiled function against parser._evaluated, the walk
    of the template's expression trees, at every grid point: the same
    operations in the same order with the same floats, or the same error."""
    constant, body = parser._TEMPLATES[name]
    reduced = parser._REDUCED.get(name, ())
    count = LIBRARY[name].param_count
    grid = list(itertools.product(_TEMPLATE_ANGLES, repeat=count))
    grid += [(1,) * count, (-2,) * count]  # an int stays one where no node divides it
    for params in grid:
        want = repr(body) if constant else _call_outcome(_walked, body, reduced, params)
        assert _call_outcome(gate_template, name, params) == want, (name, params)
