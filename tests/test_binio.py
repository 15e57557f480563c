"""Binary container: round-trips, validation, and compactness."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from qflow.binio import FORMAT_VERSION, MAGIC, decode_binary, encode_binary
from qflow.circuit import Circuit, Instruction, Register
from qflow.errors import BinaryFormatError, QasmError
from qflow.flatten import flatten
from qflow.parser import parse_qasm
from qflow.printer import print_qasm


def test_magic_header():
    c = Circuit(registers=(Register("q", "q", 1),))
    blob = encode_binary(c)
    assert blob[:4] == MAGIC == b"NWQB"
    assert struct.unpack("<H", blob[4:6])[0] == FORMAT_VERSION


def test_roundtrip_corpus(corpus):
    for name, circ in corpus:
        flat = flatten(circ)
        assert decode_binary(encode_binary(circ)) == flat, name
        assert decode_binary(encode_binary(flat)) == flat, name


def test_roundtrip_preserves_conditions_and_delay():
    src = (
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n"
        "h q[0];\ndelay q[0], 32;\nmeasure q[0] -> c[0];\nif(c==1) x q[1];\n"
    )
    c = flatten(parse_qasm(src))
    back = decode_binary(encode_binary(c))
    assert back == c
    delay = back.instructions[1]
    assert delay.params == (32,) and isinstance(delay.params[0], int)


def test_encoding_deterministic(corpus):
    for name, circ in corpus:
        assert encode_binary(circ) == encode_binary(circ), name


def test_bad_magic():
    with pytest.raises(BinaryFormatError, match="bad magic"):
        decode_binary(b"\x00\x00\x00\x00\x01\x00")


def test_bad_version():
    blob = bytearray(encode_binary(Circuit(registers=(Register("q", "q", 1),))))
    blob[4] = 99
    with pytest.raises(BinaryFormatError, match="unsupported format version"):
        decode_binary(bytes(blob))


def test_truncation_reports_offset(bell):
    blob = encode_binary(bell)
    with pytest.raises(BinaryFormatError, match=r"at byte \d+"):
        decode_binary(blob[: len(blob) - 3])


def test_trailing_garbage(bell):
    with pytest.raises(BinaryFormatError, match="trailing"):
        decode_binary(encode_binary(bell) + b"\x00")


def test_every_truncation_point_raises(bell):
    blob = encode_binary(bell)
    for cut in range(len(blob)):
        with pytest.raises(BinaryFormatError):
            decode_binary(blob[:cut])


def test_out_of_range_register_index(bell):
    blob = bytearray(encode_binary(bell))
    # corrupting the final byte (a wire or register varint) must not pass
    blob[-1] = 0x7F
    with pytest.raises(BinaryFormatError):
        decode_binary(bytes(blob))


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("stmt, value", [("rx(0.5) q[0];", 0.5), ("delay q[0], 7;", 7.0)])
def test_non_finite_parameter_is_rejected(stmt, value, bad):
    blob = encode_binary(parse_qasm(f"OPENQASM 2.0; qreg q[1]; {stmt}"))
    good = struct.pack("<d", value)
    assert blob.count(good) == 1
    with pytest.raises(BinaryFormatError, match="non-finite"):
        decode_binary(blob.replace(good, struct.pack("<d", bad)))


def test_conditioned_barrier_is_rejected():
    regs = (Register("q", "q", 1), Register("c", "c", 1))
    barrier = Instruction("barrier", (), (("q", 0),), (), ("c", 1))
    with pytest.raises(BinaryFormatError, match="instruction 0: a barrier cannot be conditioned"):
        encode_binary(Circuit(registers=regs, instructions=(barrier,)))
    # a barrier, then an x conditioned on c: pointing the x record's opcode
    # (its first byte, string 3) at the barrier's (string 2) makes the blob
    legal = Circuit(registers=regs, instructions=(
        Instruction("barrier", (), (("q", 0),)), Instruction("x", (), (("q", 0),), (), ("c", 1))))
    blob = bytearray(encode_binary(legal))
    assert blob[-9:] == bytes([3, 1, 0, 1, 0, 0, 0, 1, 1])
    blob[-9] = 2
    with pytest.raises(BinaryFormatError, match="instruction 1: a barrier cannot be conditioned"):
        decode_binary(bytes(blob))


@pytest.mark.parametrize("instr, message", [
    (Instruction("cx", (), (("q", 0), ("q", 5))), r"index 5 out of range for q\[2\]"),
    (Instruction("measure", (), (("q", 0),), (("c", 3),)), r"index 3 out of range for c\[1\]"),
    (Instruction("x", (), (("q", 0),), (), ("d", 1)), "undeclared register 'd'"),
])
def test_encoder_refuses_operands_the_decoder_refuses(instr, message):
    regs = (Register("q", "q", 2), Register("c", "c", 1))
    with pytest.raises(QasmError, match=f"instruction 0: {message}"):
        encode_binary(Circuit(registers=regs, instructions=(instr,)))


def test_decoder_refuses_operands_with_the_same_check():
    regs = (Register("q", "q", 2), Register("c", "c", 1))
    measure = Instruction("measure", (), (("q", 1),), (("c", 0),))
    blob = encode_binary(Circuit(registers=regs, instructions=(measure,)))
    # the record ends with its qubit list (one operand: register 0, wire 1)
    # and its clbit list (register 1, wire 0)
    assert blob[-6:] == bytes([1, 0, 1, 1, 1, 0])
    for tail, message in [
        ([1, 0, 5, 1, 1, 0], r"index 5 out of range for q\[2\]"),
        ([1, 1, 0, 1, 1, 0], "'c' is not a quantum register"),
        ([1, 0, 1, 1, 1, 3], r"index 3 out of range for c\[1\]"),
    ]:
        with pytest.raises(BinaryFormatError, match=f"^instruction 0: {message}"):
            decode_binary(blob[:-6] + bytes(tail))


@given(
    n_qubits=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    depth=st.integers(0, 30),
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_random_circuits(n_qubits, seed, depth):
    from conftest import random_general_qasm

    circ = flatten(parse_qasm(random_general_qasm(n_qubits, depth, seed)))
    assert decode_binary(encode_binary(circ)) == circ


def test_binary_smaller_than_text_for_large_circuit():
    # alternating h / cx circuit, the storage-motivated case
    n = 64
    instrs = []
    for k in range(200_000):
        if k % 2 == 0:
            instrs.append(Instruction("h", (), (("q", k % n),)))
        else:
            instrs.append(Instruction("cx", (), (("q", k % n), ("q", (k + 7) % n))))
    c = Circuit(registers=(Register("q", "q", n),), instructions=tuple(instrs))
    blob = encode_binary(c)
    text = print_qasm(c).encode()
    assert len(blob) < len(text)


# A blob with parameters, a delay, an if, three registers and wire indices
# past 127, so that some operands and a register size take two-byte varints.
_PINNED_SRC = (
    'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg a[2];\nqreg b[130];\ncreg c[2];\n'
    "rx(0.5) a[0];\ncx a[1],b[129];\ndelay b[128], 7;\nmeasure b[129] -> c[1];\n"
    "if(c==2) u3(0.1,0.2,0.3) a[0];\n"
)

# (first cut, field) for each run of prefixes that fail on the same field. A
# fixed-width field reports the byte it starts at and a varint the byte at
# which it ran out, so every run starts at the byte its message names.
_TRUNCATIONS = [
    (0, "magic"), (4, "version"), (6, "string table count"),
    (7, "string 0 length"), (8, "string 0"), (9, "string 1 length"), (10, "string 1"),
    (11, "string 2 length"), (12, "string 2"), (13, "string 3 length"), (14, "string 3"),
    (16, "string 4 length"), (17, "string 4"), (19, "string 5 length"), (20, "string 5"),
    (25, "string 6 length"), (26, "string 6"), (33, "string 7 length"), (34, "string 7"),
    (36, "register count"),
    (37, "register 0 name"), (38, "register 0 kind"), (39, "register 0 size"),
    (40, "register 1 name"), (41, "register 1 kind"), (42, "register 1 size"),
    (43, "register 1 size"),
    (44, "register 2 name"), (45, "register 2 kind"), (46, "register 2 size"),
    (47, "instruction count"),
    (48, "instruction 0 opcode"), (49, "instruction 0 flags"),
    (50, "instruction 0 param count"), (51, "instruction 0 param"),
    (59, "instruction 0 qubit count"), (60, "operand register index"),
    (61, "operand wire index"), (62, "instruction 0 clbit count"),
    (63, "instruction 1 opcode"), (64, "instruction 1 flags"),
    (65, "instruction 1 param count"), (66, "instruction 1 qubit count"),
    (67, "operand register index"), (68, "operand wire index"),
    (69, "operand register index"), (70, "operand wire index"), (71, "operand wire index"),
    (72, "instruction 1 clbit count"),
    (73, "instruction 2 opcode"), (74, "instruction 2 flags"),
    (75, "instruction 2 param count"), (76, "instruction 2 param"),
    (84, "instruction 2 qubit count"), (85, "operand register index"),
    (86, "operand wire index"), (87, "operand wire index"),
    (88, "instruction 2 clbit count"),
    (89, "instruction 3 opcode"), (90, "instruction 3 flags"),
    (91, "instruction 3 param count"), (92, "instruction 3 qubit count"),
    (93, "operand register index"), (94, "operand wire index"), (95, "operand wire index"),
    (96, "instruction 3 clbit count"), (97, "operand register index"),
    (98, "operand wire index"),
    (99, "instruction 4 opcode"), (100, "instruction 4 flags"),
    (101, "instruction 4 param count"), (102, "instruction 4 param"),
    (110, "instruction 4 param"), (118, "instruction 4 param"),
    (126, "instruction 4 qubit count"), (127, "operand register index"),
    (128, "operand wire index"), (129, "instruction 4 clbit count"),
    (130, "instruction 4 condition register"), (131, "instruction 4 condition value"),
]


def _pinned_blob() -> bytes:
    return encode_binary(parse_qasm(_PINNED_SRC))


def test_pinned_blob_round_trips():
    blob = _pinned_blob()
    assert len(blob) == 132
    assert decode_binary(blob) == flatten(parse_qasm(_PINNED_SRC))


def test_truncation_messages_are_pinned():
    blob = _pinned_blob()
    ends = [start for start, _ in _TRUNCATIONS[1:]] + [len(blob)]
    for (start, what), end in zip(_TRUNCATIONS, ends):
        for cut in range(start, end):
            with pytest.raises(BinaryFormatError) as info:
                decode_binary(blob[:cut])
            assert str(info.value) == f"truncated stream: {what} at byte {start}", cut


_EDITS = st.lists(
    st.tuples(st.sampled_from(("flip", "insert", "delete")), st.integers(0, 10_000),
              st.integers(0, 255)),
    min_size=1, max_size=4,
)


@given(edits=_EDITS)
@settings(max_examples=300, deadline=None)
def test_corrupted_blob_raises_only_binary_format_error(edits):
    data = bytearray(_pinned_blob())
    for kind, pos, value in edits:
        if kind == "insert":
            data.insert(pos % (len(data) + 1), value)
        elif data:
            pos %= len(data)
            if kind == "flip":
                data[pos] ^= value or 1
            else:
                del data[pos]
    try:
        decode_binary(bytes(data))
    except BinaryFormatError:
        pass
