"""Circuit.resolve: the one operand resolution every stage reads, and the one
shape-and-operand check that a hostile Circuit meets at every public entry
point."""

import pytest

from qflow import (
    Circuit,
    Instruction,
    Layout,
    QasmError,
    Register,
    analyze,
    circuit_depth,
    dm_evolve,
    dm_run,
    encode_binary,
    flatten,
    initial_mapping,
    load_bundled_device,
    parse_qasm,
    peephole_1q,
    route,
    schedule_asap,
    stab_evolve,
    stab_run,
    sv_run,
    sv_statevector,
    transpile,
)

REGS = (Register("q", "q", 2), Register("r", "q", 3), Register("c", "c", 2))
PROLOGUE = (Instruction("h", (), (("q", 0),)), Instruction("cx", (), (("q", 0), ("r", 1))))


def _circuit(*instructions) -> Circuit:
    return Circuit(registers=REGS, instructions=PROLOGUE + instructions)


def test_resolution_matches_register_offsets(corpus):
    for name, circ in corpus:
        flat = flatten(circ)
        qoff, coff = flat.qubit_offsets(), flat.clbit_offsets()
        res = flat.resolve()
        for k, instr in enumerate(flat.instructions):
            assert res.wires[k] == tuple(qoff[r] + i for r, i in instr.qubits), name
            if instr.clbits:
                assert res.clbits[k] == tuple(coff[r] + i for r, i in instr.clbits), name
            else:
                assert k not in res.clbits, name


def test_resolution_of_clbits_and_conditions():
    circ = flatten(parse_qasm(
        "OPENQASM 2.0; qreg a[1]; creg x[2]; qreg b[2]; creg y[3];"
        "measure b[1] -> y[2]; if(y==5) x b[0]; h a[0];"))
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
    (Instruction("h", (), (("q", None),)), "instruction 2: register-wide operand 'q'"),
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
        Instruction("barrier", (), (("q", 0), ("r", 2), ("q", 0))),  # a repeat only orders
    )
    assert len(circ.resolve().wires) == 8


def test_a_macro_call_must_be_flattened_first():
    circ = parse_qasm("OPENQASM 2.0; qreg q[2]; gate bell a,b { h a; cx a,b; } bell q[0],q[1];")
    with pytest.raises(QasmError, match="instruction 0: undeclared gate 'bell'"):
        circ.resolve()
    assert len(flatten(circ).resolve().wires) == 2


# one per operand rule, then one per shape rule; "register_wide" spans two
# registers of different sizes, which flatten cannot broadcast and the later
# stages do not take
HOSTILE = {
    "undeclared_qreg": Instruction("h", (), (("z", 0),)),
    "wire_out_of_range": Instruction("cx", (), (("q", 0), ("q", 5))),
    "register_wide": Instruction("cx", (), (("q", None), ("r", None))),
    "undeclared_creg": Instruction("measure", (), (("q", 0),), (("d", 0),)),
    "clbit_out_of_range": Instruction("measure", (), (("q", 0),), (("c", 3),)),
    "undeclared_condition": Instruction("x", (), (("q", 0),), (), ("d", 1)),
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
}


def _entry_points():
    device = load_bundled_device("grid9")
    topology = device.topology()
    return {
        "transpile": lambda c: transpile(c, device),
        "peephole_1q": peephole_1q,
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
        "stab_evolve": stab_evolve,
        "encode_binary": encode_binary,
        "flatten": flatten,
    }


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("case", sorted(HOSTILE))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_hostile_circuit_raises_qasm_error_at_every_entry_point(entry, case):
    with pytest.raises(QasmError):
        ENTRY_POINTS[entry](_circuit(HOSTILE[case]))
