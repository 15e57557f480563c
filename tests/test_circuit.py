"""Circuit.resolve: the one operand resolution every stage reads, and the one
circuit rule (registers, shapes, operands, parameters and conditions) that a
hostile Circuit meets at every public entry point, and that makes both round
trips, through QASM text and through NWQB bytes, give back what they took."""

import math
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qflow import (
    BinaryFormatError,
    Circuit,
    Instruction,
    Layout,
    QasmError,
    Register,
    analyze,
    circuit_depth,
    decode_binary,
    dm_evolve,
    dm_run,
    encode_binary,
    flatten,
    initial_mapping,
    load_bundled_device,
    parse_qasm,
    print_qasm,
    route,
    schedule_asap,
    stab_run,
    sv_run,
    sv_statevector,
    transpile,
)
from qflow.circuit import MAX_REGISTER_SIZE

from oracles import offsets

REGS = (Register("q", "q", 2), Register("r", "q", 3), Register("c", "c", 2))
PROLOGUE = (Instruction("h", (), (("q", 0),)), Instruction("cx", (), (("q", 0), ("r", 1))))


def _circuit(*instructions) -> Circuit:
    return Circuit(registers=REGS, instructions=PROLOGUE + instructions)


def test_an_instruction_keeps_its_dataclass_behaviour():
    """Instruction writes its own __init__ (through the slot descriptors)
    and stays a frozen dataclass."""
    h = Instruction("h", (), (("q", 0),))
    assert h == Instruction("h", qubits=(("q", 0),)) and hash(h) == hash(Instruction(
        "h", (), (("q", 0),), (), None))
    assert repr(h) == ("Instruction(opcode='h', params=(), qubits=(('q', 0),), clbits=(), "
                       "condition=None)")
    assert [f.name for f in fields(h)] == ["opcode", "params", "qubits", "clbits", "condition"]
    assert replace(h, opcode="x") == Instruction("x", (), (("q", 0),))
    with pytest.raises(FrozenInstanceError):
        h.opcode = "x"


def test_resolution_matches_register_offsets(corpus):
    for name, circ in corpus:
        qoff, coff = offsets(circ, "q"), offsets(circ, "c")
        res = circ.resolve()
        for k, instr in enumerate(circ.instructions):
            assert res.wires[k] == tuple(qoff[r] + i for r, i in instr.qubits), name
            if instr.clbits:
                assert res.clbits[k] == tuple(coff[r] + i for r, i in instr.clbits), name
            else:
                assert k not in res.clbits, name


def test_resolution_of_clbits_and_conditions():
    circ = parse_qasm(
        "OPENQASM 2.0; qreg a[1]; creg x[2]; qreg b[2]; creg y[3];"
        "measure b[1] -> y[2]; if(y==5) x b[0]; h a[0];")
    res = circ.resolve()
    assert res.wires == ((2,), (1,), (0,))
    assert res.clbits == {0: (4,)}
    assert res.conditions == {1: (2, 0b111, 5)}


def test_resolution_is_built_once_and_never_goes_stale():
    circ = _circuit()
    first = circ.resolve()
    assert circ.resolve() is first
    twin = _circuit()
    assert twin == circ and repr(twin) == repr(circ)  # the cache is not compared
    circ.instructions = PROLOGUE[:1]
    assert circ.resolve().wires == ((0,),)
    circ.registers = (Register("r", "q", 3), Register("q", "q", 2), Register("c", "c", 2))
    assert circ.resolve().wires == ((3,),)


def test_flatten_passes_a_flat_circuit_and_its_resolution_through():
    circ = _circuit(Instruction("measure", (), (("r", 2),), (("c", 1),)))
    res = circ.resolve()
    assert flatten(circ) is circ
    assert flatten(circ).resolve() is res


@pytest.mark.parametrize("instr, message", [
    (Instruction("h", (), (("z", 0),)), "instruction 2: undeclared register 'z'"),
    (Instruction("h", (), (("c", 0),)), "instruction 2: 'c' is not a quantum register"),
    (Instruction("h", (), (("q", 2),)), r"instruction 2: index 2 out of range for q\[2\]"),
    (Instruction("h", (), (("q", -1),)), r"instruction 2: index -1 out of range for q\[2\]"),
    (Instruction("h", (), (("q", None),)), "instruction 2: index None of 'q' is not an int"),
    (Instruction("measure", (), (("q", 0),), (("q", 0),)),
     "instruction 2: 'q' is not a classical register"),
    (Instruction("measure", (), (("q", 0),), (("c", 5),)),
     r"instruction 2: index 5 out of range for c\[2\]"),
    (Instruction("x", (), (("q", 0),), (), ("d", 1)), "instruction 2: undeclared register 'd'"),
    (Instruction("x", (), (("q", 0),), (), ("r", 1)),
     "instruction 2: 'r' is not a classical register"),
    (Instruction("frob", (), (("q", 0),)), "instruction 2: undeclared gate 'frob'"),
    (Instruction("rx", (), (("q", 0),)),
     r"instruction 2: gate 'rx' takes 1 parameter\(s\), got 0"),
    (Instruction("h", (), (("q", 0), ("q", 1))),
     r"instruction 2: gate 'h' acts on 1 qubit\(s\), got 2"),
    (Instruction("cx", (), (("q", 0),)), r"instruction 2: gate 'cx' acts on 2 qubit\(s\), got 1"),
    (Instruction("cx", (), (("r", 1), ("r", 1))), "instruction 2: duplicate qubit operand in 'cx'"),
    (Instruction("h", (), (("q", 0),), (("c", 0),)),
     r"instruction 2: gate 'h' writes 0 clbit\(s\), got 1"),
    (Instruction("measure", (), (("q", 0),)),
     r"instruction 2: 'measure' writes 1 clbit\(s\), got 0"),
    (Instruction("measure", (), (("q", 0),), (("c", 0), ("c", 1))),
     r"instruction 2: 'measure' writes 1 clbit\(s\), got 2"),
    (Instruction("measure", (), (("q", 0), ("q", 1)), (("c", 0),)),
     r"instruction 2: 'measure' acts on 1 qubit\(s\), got 2"),
    (Instruction("reset", (0.5,), (("q", 0),)),
     r"instruction 2: 'reset' takes 0 parameter\(s\), got 1"),
    (Instruction("delay", (1.5,), (("q", 0),)),
     "instruction 2: delay cycle count must be a nonnegative integer"),
    (Instruction("delay", (), (("q", 0),)),
     "instruction 2: delay cycle count must be a nonnegative integer"),
    (Instruction("delay", (-1,), (("q", 0),)),
     "instruction 2: delay cycle count must be a nonnegative integer"),
    (Instruction("delay", (True,), (("q", 0),)),
     "instruction 2: delay cycle count must be a nonnegative integer"),
    (Instruction("delay", (3,), (("q", 0), ("q", 1))),
     r"instruction 2: 'delay' acts on 1 qubit\(s\), got 2"),
    (Instruction("barrier", (), ()), "instruction 2: a barrier needs at least one qubit"),
    (Instruction("barrier", (), (("q", 0),), (), ("c", 1)),
     "instruction 2: a barrier cannot be conditioned"),
    (Instruction("h", (), [("q", 0)]), r"instruction 2: operands must be a tuple of "
     r"\(register, index\) tuples, got \[\('q', 0\)\]"),
    (Instruction("h", (), (["q", 0],)), r"instruction 2: operands must be a tuple of "
     r"\(register, index\) tuples, got \(\['q', 0\],\)"),
    (Instruction("h", (), (("q", 0, 1),)), r"instruction 2: operands must be a tuple of "
     r"\(register, index\) tuples, got \(\('q', 0, 1\),\)"),
    (Instruction("measure", (), (("q", 0),), [("c", 0)]),
     r"instruction 2: operands must be a tuple of \(register, index\) tuples, got \[\('c', 0\)\]"),
    (Instruction("x", (), (("q", 0),), (), ("c", 1.0)), "instruction 2: if value 1.0 is not an integer"),
    (Instruction("x", (), (("q", 0),), (), ("c",)), r"instruction 2: an if condition must be a "
     r"\(register, integer\) pair, got \('c',\)"),
    (Instruction("x", (), (("q", 0),), (), ("c", 1, 2)), r"instruction 2: an if condition must "
     r"be a \(register, integer\) pair, got \('c', 1, 2\)"),
    (Instruction("x", (), (("q", 0),), (), "c1"), r"instruction 2: an if condition must be a "
     r"\(register, integer\) pair, got 'c1'"),
    (Instruction("h", (), (("q",),)), r"instruction 2: operands must be a tuple of "
     r"\(register, index\) tuples, got \(\('q',\),\)"),
    (Instruction("rz", ("a",), (("q", 0),)),
     "instruction 2: parameter 'a' is not a finite real number"),
    (Instruction("rz", [0.5], (("q", 0),)),
     r"instruction 2: parameters must be a tuple, got \[0.5\]"),
    (Instruction("u3", (0.1, math.nan, 0.3), (("q", 0),)),
     "instruction 2: parameter nan is not a finite real number"),
    (Instruction("rz", (-math.inf,), (("q", 0),)),
     "instruction 2: parameter -inf is not a finite real number"),
    (Instruction("rz", (10**400,), (("q", 0),)), "instruction 2: parameter 1000"),
])
def test_resolution_refuses_each_bad_operand(instr, message):
    with pytest.raises(QasmError, match=message):
        _circuit(instr).resolve()


def test_resolution_accepts_every_valid_shape():
    circ = _circuit(
        Instruction("u3", (0.1, 0.2, 0.3), (("r", 2),)),
        Instruction("rzz", (0.5,), (("q", 1), ("r", 0)), (), ("c", 3)),
        Instruction("measure", (), (("q", 1),), (("c", 1),)),
        Instruction("reset", (), (("r", 0),)),
        Instruction("delay", (0,), (("r", 1),)),
        Instruction("u3", (1, np.float64(0.5), np.float32(-2.0)), (("q", 0),)),
        Instruction("barrier", (), (("q", 0), ("r", 2), ("q", 0))),  # a repeat only orders
    )
    assert len(circ.resolve().wires) == 9


@pytest.mark.parametrize("instr, message", [
    (Instruction("bell", (), (("q", 0), ("q", 1))), "undeclared gate 'bell'"),
    (Instruction("h", (), (("z", None),)), "undeclared register 'z'"),
    (Instruction("measure", (), (("q", None),), (("c", None),)), "index None of 'q' is not an int"),
    (Instruction("barrier", (), (("q", 0), ("z", None))), "undeclared register 'z'"),
], ids=["bell q[0],q[1]", "h z", "measure q -> c", "barrier q[0], z"])
def test_a_macro_call_or_a_register_wide_operand_is_refused(instr, message):
    """Only parse_qasm expands them; a circuit holds flat instructions."""
    circ = Circuit(registers=(Register("q", "q", 2), Register("c", "c", 2)),
                   instructions=(instr,))
    with pytest.raises(QasmError, match=f"^instruction 0: {message}$"):
        circ.resolve()


# one per operand rule, then one per shape rule, then the malformed operands,
# one per parameter rule and the malformed conditions; "register_wide" spans two
# registers of different sizes, which no later stage takes
HOSTILE = {
    "undeclared_qreg": Instruction("h", (), (("z", 0),)),
    "wire_out_of_range": Instruction("cx", (), (("q", 0), ("q", 5))),
    "register_wide": Instruction("cx", (), (("q", None), ("r", None))),
    "undeclared_creg": Instruction("measure", (), (("q", 0),), (("d", 0),)),
    "clbit_out_of_range": Instruction("measure", (), (("q", 0),), (("c", 3),)),
    "undeclared_condition": Instruction("x", (), (("q", 0),), (), ("d", 1)),
    "qubits_in_a_list": Instruction("h", (), [("q", 0)]),
    "operand_as_a_list": Instruction("h", (), (["q", 0],)),
    "clbits_in_a_list": Instruction("measure", (), (("q", 0),), [("c", 0)]),
    "fractional_if_value": Instruction("x", (), (("q", 0),), (), ("c", 1.5)),
    "h_on_two_qubits": Instruction("h", (), (("q", 0), ("q", 1))),
    "rx_without_param": Instruction("rx", (), (("q", 0),)),
    "cx_on_one_qubit": Instruction("cx", (), (("q", 0),)),
    "measure_without_clbit": Instruction("measure", (), (("q", 0),)),
    "measure_two_clbits": Instruction("measure", (), (("q", 0),), (("c", 0), ("c", 1))),
    "reset_with_param": Instruction("reset", (0.5,), (("q", 0),)),
    "fractional_delay": Instruction("delay", (1.5,), (("q", 0),)),
    "delay_without_count": Instruction("delay", (), (("q", 0),)),
    "conditioned_barrier": Instruction("barrier", (), (("q", 0),), (), ("c", 1)),
    "undeclared_gate": Instruction("frob", (), (("q", 0),)),
    "h_with_clbit": Instruction("h", (), (("q", 0),), (("c", 0),)),
    "operand_of_three": Instruction("h", (), (("q", 0, 1),)),
    "operand_of_one": Instruction("h", (), (("q",),)),
    "string_param": Instruction("rz", ("a",), (("q", 0),)),
    "params_in_a_list": Instruction("rz", [0.5], (("q", 0),)),
    "nan_param": Instruction("rz", (math.nan,), (("q", 0),)),
    "infinite_param": Instruction("rx", (math.inf,), (("q", 0),)),
    "condition_of_one": Instruction("x", (), (("q", 0),), (), ("c",)),
    "condition_of_three": Instruction("x", (), (("q", 0),), (), ("c", 1, 2)),
    "condition_as_a_string": Instruction("x", (), (("q", 0),), (), "c1"),
    "bool_index": Instruction("h", (), (("q", True),)),
    "float_clbit": Instruction("measure", (), (("q", 0),), (("c", 1.0),)),
    "negative_if_value": Instruction("x", (), (("q", 0),), (), ("c", -1)),
    "fraction_param": Instruction("rz", (Fraction(1, 3),), (("q", 0),)),
    "int_param_beyond_a_double": Instruction("rz", (2**53 + 1,), (("q", 0),)),
    "unhashable_register_name": Instruction("h", (), ((["q"], 0),)),
}

# what flatten once took: macro calls and register-wide operands; only
# parse_qasm expands them, so a Circuit that holds one is refused as it is
HOSTILE_CALLS = {
    "macro_on_too_few_qubits": Instruction("bell", (), (("q", 0),)),
    "macro_on_too_many_qubits": Instruction("bell", (), (("q", 0), ("q", 1), ("r", 0))),
    "macro_with_an_extra_param": Instruction("bell", (0.5,), (("q", 0), ("q", 1))),
    "macro_without_its_param": Instruction("rot", (), (("q", 0),)),
    "macro_with_a_clbit": Instruction("bell", (), (("q", 0), ("q", 1)), (("c", 0),)),
    "macro_on_one_qubit_twice": Instruction("bell", (), (("q", 1), ("q", 1))),
    "macro_with_a_nan_param": Instruction("rot", (math.nan,), (("q", 0),)),
    "macro_on_a_clbit": Instruction("rot", (0.5,), (("c", 0),)),
    "wide_macro_size_mismatch": Instruction("bell", (), (("q", None), ("r", None))),
    "wide_and_fixed_operand_of_one_register": Instruction("cx", (), (("q", 0), ("q", None))),
    "wide_measure_into_one_clbit": Instruction("measure", (), (("q", None),), (("c", 0),)),
    "wide_operand_of_an_undeclared_register": Instruction("h", (), (("z", None),)),
}

# the registers that replace REGS' "r", one per register rule
HOSTILE_REGISTERS = {
    "duplicate_name": Register("q", "q", 3),
    "duplicate_name_of_another_kind": Register("c", "q", 3),
    "name_with_a_space": Register("my q", "q", 3),
    "empty_name": Register("", "q", 3),
    "name_starting_with_a_digit": Register("1r", "q", 3),
    "name_not_a_string": Register(5, "q", 3),
    "size_zero": Register("r", "q", 0),
    "negative_size": Register("r", "q", -1),
    "bool_size": Register("r", "q", True),
    "float_size": Register("r", "q", 3.0),
    "kind_x": Register("r", "x", 3),
    "not_a_register": ("r", "q", 3),
    "size_past_the_bound": Register("r", "c", MAX_REGISTER_SIZE + 1),
    "size_of_2_to_the_70": Register("r", "c", 2**70),
}


def _hostile(case: str) -> Circuit:
    if case in HOSTILE:
        return _circuit(HOSTILE[case])
    if case in HOSTILE_CALLS:
        return _circuit(HOSTILE_CALLS[case])
    regs = (REGS[0], HOSTILE_REGISTERS[case], REGS[2])
    return Circuit(registers=regs, instructions=PROLOGUE[:1])


def _entry_points():
    device = load_bundled_device("grid9")
    topology = device.topology()
    return {
        "transpile": lambda c: transpile(c, device),
        "initial_mapping": lambda c: initial_mapping(c, topology),
        "route": lambda c: route(c, Layout(tuple(range(9)), 5), topology),
        "schedule_asap": lambda c: schedule_asap(c, device),
        "analyze": analyze,
        "circuit_depth": circuit_depth,
        "sv_run": lambda c: sv_run(c, shots=4),
        "sv_statevector": sv_statevector,
        "dm_run": lambda c: dm_run(c, shots=4),
        "dm_evolve": dm_evolve,
        "stab_run": lambda c: stab_run(c, shots=4),
        "encode_binary": encode_binary,
        "flatten": flatten,
        "print_qasm": print_qasm,
    }


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("case", sorted(HOSTILE) + sorted(HOSTILE_CALLS)
                         + sorted(HOSTILE_REGISTERS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_hostile_circuit_raises_qasm_error_at_every_entry_point(entry, case):
    with pytest.raises(QasmError):
        ENTRY_POINTS[entry](_hostile(case))


# field -> (values the rule accepts, values it refuses), for the round-trip
# property; an if value or a delay count can pass the rule and still not
# fit the NWQB codec
_FIELDS = {
    "register": ([Register("r", "q", 1), Register("_r2", "c", 3),
                  Register("big", "c", MAX_REGISTER_SIZE)],
                 [Register("q", "q", 3), Register("my q", "q", 1), Register("", "q", 1),
                  Register("1r", "q", 1), Register("r", "q", 0), Register("r", "q", True),
                  Register("r", "q", 2.0), Register("r", "x", 1), Register("big", "c", 2**70)]),
    "index": ([0, 1], [True, False, 1.0, -1, 2]),
    "param": ([0.5, -0.0, 1e-300, 1, True, 2**53, np.float64(0.25), np.float32(0.1),
               Fraction(1, 2)],
              [2**53 + 1, Fraction(1, 3), 10**400, math.nan, math.inf, "a"]),
    "value": ([0, 3, True, 2**70 - 1, 2**70], [-1, 1.0]),
    "cycles": ([0, 7, 2**53 + 2, 2**53 + 1], [-1, True, 1.5, 10**400]),
}


def _circuits(bad: str | None):
    """Circuits over q[2] and c[2] in which the values of field ``bad``, if
    any, come from those the rule refuses."""
    def field(name):
        good, hostile = _FIELDS[name]
        return st.sampled_from(hostile if name == bad else good)

    qubit = st.tuples(st.just("q"), field("index"))
    condition = st.none() | st.tuples(st.just("c"), field("value"))
    instruction = st.one_of(
        st.builds(lambda q, c: Instruction("h", (), (q,), (), c), qubit, condition),
        st.builds(lambda a, b: Instruction("cx", (), (a, b)), qubit, qubit),
        st.builds(lambda p, q, c: Instruction("rz", (p,), (q,), (), c),
                  field("param"), qubit, condition),
        st.builds(lambda ps, q: Instruction("u3", tuple(ps), (q,)),
                  st.lists(field("param"), min_size=3, max_size=3), qubit),
        st.builds(lambda q, i: Instruction("measure", (), (q,), (("c", i),)),
                  qubit, field("index")),
        st.builds(lambda n, q: Instruction("delay", (n,), (q,)), field("cycles"), qubit),
    )
    return st.builds(
        lambda extra, instrs: Circuit(
            registers=(Register("q", "q", 2), Register("c", "c", 2), *extra),
            instructions=tuple(instrs)),
        st.lists(field("register"), min_size=bad == "register", max_size=1),
        st.lists(instruction, max_size=4))


_RULE_CIRCUITS = st.one_of([_circuits(bad) for bad in (None, *_FIELDS)])


def _beyond_the_codec(circuit: Circuit) -> bool:
    """Whether ``circuit`` holds an if value past the 70 bits of a varint,
    or a delay count that its f64 does not hold exactly."""
    for instr in circuit.instructions:
        if instr.condition is not None and instr.condition[1] >= 2**70:
            return True
        if instr.opcode == "delay" and float(instr.params[0]) != instr.params[0]:
            return True
    return False


@given(_RULE_CIRCUITS)
@settings(max_examples=200, deadline=None)
def test_resolve_accepts_what_both_round_trips_give_back(circuit):
    try:
        circuit.resolve()
    except QasmError:
        for writer in (print_qasm, encode_binary):
            with pytest.raises(QasmError):
                writer(circuit)
        return
    assert parse_qasm(print_qasm(circuit)) == circuit
    try:
        blob = encode_binary(circuit)
    except BinaryFormatError:
        assert _beyond_the_codec(circuit)
        return
    assert not _beyond_the_codec(circuit)
    assert decode_binary(blob) == circuit


_OPERANDS = ["q", "q[0]", "q[1]", "r", "r[1]", "s", "s[2]"]


@st.composite
def _source_texts(draw) -> str:
    """QASM text with macro calls and register-wide operands, many of which
    the parser refuses."""
    a, b, d = (draw(st.sampled_from(_OPERANDS)) for _ in range(3))
    creg = draw(st.sampled_from(["c", "c[0]", "e", "e[2]"]))
    statements = [
        f"bell {a},{b};", f"rot(0.5) {a};", f"h {a};", f"cx {a},{b};", f"ccx {a},{b},{d};",
        f"measure {a} -> {creg};", f"barrier {a},{b};", f"if(c==3) bell {a},{b};",
        f"if(e==7) rot(-0.0) {a};", f"reset {a};", f"delay {a}, 5;",
    ]
    return ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nqreg r[2];\nqreg s[3];\n'
            "creg c[2];\ncreg e[3];\ngate bell a,b { h a; cx a,b; }\n"
            "gate rot(t) a { rz(t/2) a; }\n"
            + "\n".join(draw(st.lists(st.sampled_from(statements), min_size=1, max_size=3))))


@given(_source_texts())
@settings(max_examples=100, deadline=None)
def test_a_parsed_circuit_with_macros_and_broadcasts_reads_back_equal(text):
    try:
        circuit = parse_qasm(text)
    except QasmError:
        return
    assert parse_qasm(print_qasm(circuit)) == circuit
    assert decode_binary(encode_binary(circuit)) == circuit


@pytest.mark.parametrize("text, message", [
    ('OPENQASM 2.0; qreg q[3]; creg ccx[1]; include "qelib1.inc"; h q[0];',
     "line 1, col 47: redefinition of 'ccx'"),
    ('OPENQASM 2.0; gate cswap a,b,c { h a; } include "qelib1.inc"; qreg q[3];',
     "line 1, col 49: redefinition of 'cswap'"),
    ('OPENQASM 2.0; include "qelib1.inc"; qreg q[3]; creg ccx[1];',
     "line 1, col 53: redefinition of 'ccx'"),
    ('OPENQASM 2.0; qreg q[3]; creg ccx[1]; h q[0];', None),
    ('OPENQASM 2.0; include "qelib1.inc"; qreg q[3]; creg c[1]; ccx q[0],q[1],q[2];', None),
])
def test_a_name_the_include_defines_is_refused_where_it_would_clash(text, message):
    """The include defines its macros where it stands, so the parser
    refuses a register or gate that holds one of their names first, and a
    register that takes one after; what it accepts reads back equal."""
    if message is not None:
        with pytest.raises(QasmError) as info:
            parse_qasm(text)
        assert str(info.value) == message
        return
    circuit = parse_qasm(text)
    assert parse_qasm(print_qasm(circuit)) == circuit
