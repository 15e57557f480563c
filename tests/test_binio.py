"""Binary container: round-trips, validation, and compactness."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from qflow.binio import FORMAT_VERSION, MAGIC, decode_binary, encode_binary
from qflow.circuit import Circuit, Instruction, Register
from qflow.errors import BinaryFormatError
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
