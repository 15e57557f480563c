"""Binary container: round-trips, validation, and compactness."""

import hashlib
import math
import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from qflow.binio import FORMAT_VERSION, MAGIC, _write_uvarint, decode_binary, encode_binary
from qflow.circuit import MAX_REGISTER_SIZE, Circuit, Instruction, Register
from qflow.errors import BinaryFormatError, QasmError
from qflow.parser import parse_qasm
from qflow.printer import print_qasm
from qflow.transpile import transpile


def test_magic_header():
    c = Circuit(registers=(Register("q", "q", 1),))
    blob = encode_binary(c)
    assert blob[:4] == MAGIC == b"NWQB"
    assert struct.unpack("<H", blob[4:6])[0] == FORMAT_VERSION


def test_roundtrip_corpus(corpus):
    for name, circ in corpus:
        assert decode_binary(encode_binary(circ)) == circ, name


def test_roundtrip_preserves_conditions_and_delay():
    src = (
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n"
        "h q[0];\ndelay q[0], 32;\nmeasure q[0] -> c[0];\nif(c==1) x q[1];\n"
    )
    c = parse_qasm(src)
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


@pytest.fixture(scope="module")
def qft8_grid9_blob(devices):
    """A transpiled QFT-8: 670 records, of which only 103 are distinct."""
    from conftest import qft_qasm

    return encode_binary(transpile(parse_qasm(qft_qasm(8)), devices["grid9"])[0])


def test_every_truncation_point_raises(bell, qft8_grid9_blob):
    for blob in (encode_binary(bell), qft8_grid9_blob):
        for cut in range(len(blob)):
            with pytest.raises(BinaryFormatError):
                decode_binary(blob[:cut])


# cut -> message, for cuts that fall after many repeated records
_QFT8_TRUNCATIONS = {
    4021: "instruction 342 flags at byte 4021",
    4022: "instruction 342 param count at byte 4022",
    4026: "instruction 342 param at byte 4023",
    4031: "instruction 342 qubit count at byte 4031",
    4032: "operand register index at byte 4032",
    4033: "operand wire index at byte 4033",
    4034: "instruction 342 clbit count at byte 4034",
    4035: "instruction 343 opcode at byte 4035",
    7867: "instruction 669 clbit count at byte 7867",
}


def test_truncation_messages_after_repeated_records_are_pinned(qft8_grid9_blob):
    assert len(qft8_grid9_blob) == 7868
    for cut, what in _QFT8_TRUNCATIONS.items():
        with pytest.raises(BinaryFormatError) as info:
            decode_binary(qft8_grid9_blob[:cut])
        assert str(info.value) == f"truncated stream: {what}", cut


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
    with pytest.raises(QasmError, match="instruction 0: a barrier cannot be conditioned"):
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


@pytest.mark.parametrize("stmt, message", [
    # a varint holds 70 bits, and the decoder refused this value as an overflow
    ("if(c==1180591620717411303424) x q[0];", "cannot encode 1180591620717411303424"),
    # a delay count is stored as an f64, which read this one back as ...992
    ("delay q[0], 9007199254740993;",
     "instruction 0: delay count 9007199254740993 does not fit a double exactly"),
])
def test_a_value_the_format_cannot_hold_is_refused_by_the_encoder(stmt, message):
    circ = parse_qasm(f"OPENQASM 2.0; qreg q[1]; creg c[2]; {stmt}")
    circ.resolve()
    with pytest.raises(BinaryFormatError, match=message):
        encode_binary(circ)


def test_the_largest_values_the_format_holds_round_trip():
    circ = parse_qasm("OPENQASM 2.0; qreg q[1]; creg c[2];"
                      f"if(c=={2**70 - 1}) x q[0]; delay q[0], {2**53 + 2};")
    assert decode_binary(encode_binary(circ)) == circ


def test_decoder_refuses_a_register_past_the_size_bound():
    blob = encode_binary(Circuit(registers=(Register("q", "q", 1), Register("c", "c", 1))))
    # the register table ends with c's name index, kind and size; then no instruction
    assert blob[-4:] == bytes([1, 1, 1, 0])
    for size in (MAX_REGISTER_SIZE + 1, 2**70 - 1):
        wide = bytearray(blob[:-2])
        _write_uvarint(wide, size)
        with pytest.raises(BinaryFormatError, match=f"register 'c' needs .* not 'c' and {size}$"):
            decode_binary(bytes(wide) + b"\0")


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


def _blob(*instructions) -> bytearray:
    regs = (Register("q", "q", 2), Register("c", "c", 1))
    return bytearray(encode_binary(Circuit(registers=regs, instructions=instructions)))


def test_decoder_refuses_each_bad_shape_with_the_same_check():
    # strings: 0 "q", 1 "c", then the opcodes in order; the last record is
    # the second instruction's
    measure = Instruction("measure", (), (("q", 0),), (("c", 0),))
    blob = _blob(measure, Instruction("cx", (), (("q", 0), ("q", 1))))
    assert blob[-9:] == bytes([3, 0, 0, 2, 0, 0, 0, 1, 0])
    blob[-9] = 2  # the cx's operands under the measure's opcode
    with pytest.raises(BinaryFormatError, match=r"^instruction 1: 'measure' acts on 1 qubit\(s\), got 2"):
        decode_binary(bytes(blob))

    delay = Instruction("delay", (7,), (("q", 0),))
    blob = _blob(delay, Instruction("crz", (2.0,), (("q", 0), ("q", 1))))
    assert blob[-17:] == bytes([3, 0, 1]) + struct.pack("<d", 2.0) + bytes([2, 0, 0, 0, 1, 0])
    blob[-17] = 2  # the crz's angle and operands under the delay's opcode
    with pytest.raises(BinaryFormatError, match=r"^instruction 1: 'delay' acts on 1 qubit\(s\), got 2"):
        decode_binary(bytes(blob))

    blob = _blob(Instruction("barrier", (), (("q", 1),)))
    assert blob[-7:] == bytes([2, 0, 0, 1, 0, 1, 0])
    blob[-4:] = bytes([0, 0])  # no qubit operand, no clbit operand
    with pytest.raises(BinaryFormatError, match="^instruction 0: a barrier needs at least one qubit"):
        decode_binary(bytes(blob))


@given(
    n_qubits=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    depth=st.integers(0, 30),
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_random_circuits(n_qubits, seed, depth):
    from conftest import random_general_qasm

    circ = parse_qasm(random_general_qasm(n_qubits, depth, seed))
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
    assert decode_binary(blob) == parse_qasm(_PINNED_SRC)


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


# sha256 of print_qasm and of encode_binary over the transpiled conftest
# corpus (each circuit that fits the device, in corpus order), per device
# and opt level; computed before the codecs memoized their records
_OUTPUT_DIGESTS = {
    ("line5", 0): ("3d15a569be89f8a4e44c87f0969ee02864b5393623e80e270157c8eaf4e0a455",
                   "79775c7223d93926c06cb2c9c49d089145dc9c998e33e03f52b5f8b788e29d30"),
    ("line5", 1): ("2454555e2941b8f6a29af0b6010137e9a174ce12e33912144d0f66bf026997d6",
                   "2b4d96197ebf7f8f6b23ef26a5d4c12194b9f66c86d7d938e05465c633f755be"),
    ("heavyhex7", 0): ("55873c08b7e05d2e4ef4df116e87cc68e9c7e062164f58663ca36cfe1211cb1d",
                       "cb3b91ebd9357a32667edfe3917227052db5934cd4e70f37571c831af39dce67"),
    ("heavyhex7", 1): ("0be31ad99c8124b81759b613ff86907db478c5d265014447d602eb5caa0905a2",
                       "8683eaa319a1a7475f50ab21e6c784d9be42add16d92fdd0bee7952333412a0f"),
    ("grid9", 0): ("655dfed8c891d58d090dac4e152515607392b7c855550bb47a45e8bb00e1240b",
                   "fa7191706227931758aaf8395d759a9c0f87fc31fb1fe81d26f11f2c56ecb017"),
    ("grid9", 1): ("7cd7cf62f156cd1519c9a65e00ced62005b38dd3501b0cca6698bae10be75dc6",
                   "acd9d90b90af5545e36b9aac11f0bcab84b7d07bda544e5351a5d3ed3efc86c8"),
    ("alltoall11", 0): ("45efe11f73fbd105da1dc3626de096c4765dbd5295d422067dce583363e80ea6",
                        "f64b5d67e2b982a640f73732c1d1cc16288860d63ff7b02a31d557c625e930f3"),
    ("alltoall11", 1): ("02627faeb7e342667af98b0af55f84ace5ed2e8f285da41d094ffd73c9210c18",
                        "c3658fea5e94e3e5c2f432986c726b092f8e7d73619e7051b84644a92154289a"),
}


@pytest.mark.parametrize("opt_level", [0, 1])
@pytest.mark.parametrize("device", ["line5", "heavyhex7", "grid9", "alltoall11"])
def test_transpiled_corpus_output_is_pinned(corpus, devices, device, opt_level):
    dev = devices[device]
    outputs = [transpile(circ, dev, opt_level=opt_level)[0]
               for _, circ in corpus if circ.n_qubits <= dev.num_qubits]
    text = hashlib.sha256("".join(map(print_qasm, outputs)).encode()).hexdigest()
    blob = hashlib.sha256(b"".join(map(encode_binary, outputs))).hexdigest()
    assert (text, blob) == _OUTPUT_DIGESTS[device, opt_level]


def test_signed_zero_keeps_its_sign():
    zeros = (0.0, -0.0, 0.0, -0.0)
    circ = Circuit(registers=(Register("q", "q", 1),), instructions=tuple(
        Instruction("rz", (z,), (("q", 0),)) for z in zeros))
    assert print_qasm(circ).splitlines()[2:] == [
        "rz(0.0) q[0];", "rz(-0.0) q[0];", "rz(0.0) q[0];", "rz(-0.0) q[0];"]
    back = decode_binary(encode_binary(circ))
    assert [math.copysign(1, i.params[0]) for i in back.instructions] == [1, -1, 1, -1]


def test_a_stream_that_does_not_repeat_round_trips():
    # 3000 distinct records, more than the codecs keep a memo for, then
    # repeats of them
    rng = random.Random(3)
    u3s = [Instruction("u3", tuple(rng.uniform(-3, 3) for _ in range(3)), (("q", k % 4),))
           for k in range(3000)]
    regs = (Register("q", "q", 4),)
    circ = Circuit(registers=regs, instructions=tuple(u3s + u3s[:500]))
    assert decode_binary(encode_binary(circ)) == circ
    alone = [print_qasm(Circuit(registers=regs, instructions=(i,))).splitlines()[-1]
             for i in circ.instructions]
    assert print_qasm(circ).splitlines()[2:] == alone


def test_repeated_records_of_one_opcode_and_other_lengths_round_trip():
    # records that begin with the same byte but differ in length (an if, a
    # wider barrier, a wire index of two varint bytes) or only in their
    # condition, each repeated, so that the codecs' memos meet each of them;
    # the stream ends with a record shorter than the last one of its opcode
    regs = (Register("q", "q", 200), Register("c", "c", 2))
    q0, q1, far = ("q", 0), ("q", 1), ("q", 150)
    block = (
        Instruction("x", (), (q0,)), Instruction("x", (), (q0,), (), ("c", 1)),
        Instruction("x", (), (q0,), (), ("c", 2)), Instruction("x", (), (far,)),
        Instruction("barrier", (), (q0,)), Instruction("barrier", (), (q0, q1)),
        Instruction("barrier", (), (q0, far)), Instruction("rz", (0.5,), (q1,), (), ("c", 3)),
        Instruction("rz", (0.5,), (q1,)), Instruction("measure", (), (q0,), (("c", 1),)),
    )
    circ = Circuit(registers=regs, instructions=block + block[::-1] + block + block[4:5])
    assert decode_binary(encode_binary(circ)) == circ


@pytest.mark.parametrize("data", [10**7, 2**70, -1, "NWQB", None],
                         ids=["int", "huge-int", "negative-int", "str", "none"])
def test_data_that_is_not_bytes_like_is_refused_before_it_allocates(data):
    tracemalloc.start()
    try:
        with pytest.raises(BinaryFormatError, match="NWQB data must be bytes-like, got "):
            decode_binary(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bytes_like_data_decodes_alike():
    blob = encode_binary(parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0],q[1];\n'))
    want = decode_binary(blob)
    for data in (bytearray(blob), memoryview(blob)):
        assert encode_binary(decode_binary(data)) == encode_binary(want)
