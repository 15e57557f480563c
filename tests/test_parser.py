"""Parser behavior: statement forms, expression folding, and errors."""

import math

import pytest

from qflow.circuit import Instruction
from qflow.cli import main
from qflow.errors import QasmError
from qflow.parser import MAX_EXPR_DEPTH, parse_qasm

from conftest import bell_qasm


class TestBasicPrograms:
    def test_bell_statement_mapping(self):
        c = parse_qasm(
            "OPENQASM 2.0; qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1]; measure q -> c;"
        )
        assert [r.name for r in c.registers] == ["q", "c"]
        assert [i.opcode for i in c.instructions] == ["h", "cx", "measure"]
        assert c.instructions[1].qubits == (("q", 0), ("q", 1))
        # register-wide measure stays compact until flattening
        assert c.instructions[2].qubits == (("q", None),)
        assert c.instructions[2].clbits == (("c", None),)

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
        assert c.instructions[2].qubits == (("q", None),)

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
        gd = c.gate_def("bell")
        assert gd is not None
        assert [b.opcode for b in gd.body] == ["h", "cx"]
        assert c.instructions[0].opcode == "bell"

    def test_parameterized_macro(self):
        c = parse_qasm(
            "OPENQASM 2.0; qreg q[1]; gate rot(a,b) x0 { rz(a/2) x0; ry(b+pi) x0; } rot(1.0,2.0) q[0];"
        )
        gd = c.gate_def("rot")
        assert gd.params == ("a", "b")

    def test_opaque_recorded(self):
        c = parse_qasm("OPENQASM 2.0; qreg q[1]; opaque magic(theta) a;")
        gd = c.gate_def("magic")
        assert gd.opaque and gd.body == ()

    def test_qelib1_three_qubit_macros(self):
        c = parse_qasm(
            'OPENQASM 2.0; include "qelib1.inc"; qreg q[3]; ccx q[0],q[1],q[2];'
        )
        assert c.gate_def("ccx") is not None
        assert c.gate_def("ccx").from_include

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
