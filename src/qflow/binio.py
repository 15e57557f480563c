"""Compact binary circuit container (NWQB v1).

Layout, all multi-byte integers little-endian, varints LEB128 unsigned:

    magic   4 bytes  4E 57 51 42 ("NWQB")
    version u16      1
    string table     varint count, then per entry varint length + UTF-8 bytes
    registers        varint count, then {name: varint string index,
                     kind: u8 (0=quantum, 1=classical), size: varint}
    instructions     varint count, then per instruction:
                     opcode: varint string index
                     flags: u8 (bit0 = has condition)
                     param count: varint, params: raw IEEE-754 f64 each
                     (delay cycle counts are stored as f64)
                     qubit operand count: varint, then (varint register index,
                     varint wire index) pairs
                     classical operands likewise
                     if flagged: (varint classical register index, varint value);
                     a barrier is never flagged

The stream holds a flat circuit: library opcodes and the four statements
on concrete wires, as every circuit is.

Both directions work on the bytes directly and do their per-record work
once per distinct record, in a memo that lives for one call (string and
register tables differ per blob):
- The encoder encodes each distinct frame once: the bytes of a record
  before and after its parameters, keyed by opcode, parameter count,
  operands and condition. Each record then only packs its parameters.
- The decoder maps a record's exact bytes to the ``Instruction`` read from
  them (frozen, so one object may stand at many positions). At each record
  it looks up as many bytes as the last record that began with the same
  byte had. A record is self-delimiting, so bytes equal to a record read
  before are that record: a hit is exact even when the length is not. A
  miss reads the record field by field (one-byte varints inline, all
  parameters in one ``struct`` call, an error message built only when
  raised) and is stored once it has been read without error.
- A decoder memo that holds more than 1024 records, over half of those
  read so far, is dropped: the stream does not repeat, and lookups would
  cost more than they save.

The decoder checks only what it needs to build the instructions (varints,
string and register indices, finite parameters); ``Circuit.resolve``
checks the rest, the registers and each instruction, for both directions:
the encoder raises its QasmError, and the decoder raises it as a
BinaryFormatError (a register past ``MAX_REGISTER_SIZE`` too). A circuit
the rule accepts decodes equal, or the encoder raises BinaryFormatError for
an ``if`` value past the 2**70 - 1 of a varint, or a delay count that its
f64 does not hold exactly (above 2**53).
"""

from __future__ import annotations

import math
import struct

from .circuit import Circuit, Instruction, Register
from .errors import BinaryFormatError, QasmError

__all__ = ["encode_binary", "decode_binary", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"NWQB"
FORMAT_VERSION = 1
_MEMO_FLOOR = 1024  # see the module docstring


def _write_uvarint(buf: bytearray, value: int):
    if value >> 70:  # also true for a negative value
        raise BinaryFormatError(f"cannot encode {value}: a varint holds 0 to 2**70 - 1")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def encode_binary(circuit: Circuit) -> bytes:
    """Serialize a circuit, so that ``decode_binary(encode_binary(c))``
    equals ``c``. Encoding is deterministic: identical circuits yield
    identical bytes."""
    circuit.resolve()

    strings: list[str] = []
    index: dict[str, int] = {}

    def intern(s: str) -> int:
        if s not in index:
            index[s] = len(strings)
            strings.append(s)
        return index[s]

    reg_index = {reg.name: i for i, reg in enumerate(circuit.registers)}
    for reg in circuit.registers:
        intern(reg.name)

    def encode_frame(instr: Instruction) -> tuple[bytes, bytes]:
        """The bytes of ``instr``'s record before and after its parameters."""
        head = bytearray()
        _write_uvarint(head, intern(instr.opcode))
        head.append(0 if instr.condition is None else 1)
        _write_uvarint(head, len(instr.params))
        tail = bytearray()
        for operands in (instr.qubits, instr.clbits):
            _write_uvarint(tail, len(operands))
            for reg, wire in operands:
                _write_uvarint(tail, reg_index[reg])
                _write_uvarint(tail, wire)
        if instr.condition is not None:
            creg, value = instr.condition
            _write_uvarint(tail, reg_index[creg])
            _write_uvarint(tail, value)
        return bytes(head), bytes(tail)

    # the records go to their own buffer first, since the string table ahead
    # of them is complete only once every opcode is interned; records repeat
    # but for their parameters, so each distinct frame is encoded once
    body = bytearray()
    frames: dict[tuple, tuple] = {}
    packers: dict[int, object] = {}
    for k, instr in enumerate(circuit.instructions):
        params = instr.params
        try:
            key = (instr.opcode, len(params), instr.qubits, instr.clbits, instr.condition)
            frame = frames.get(key)
        except TypeError:  # a field that cannot be hashed
            key = frame = None
        if frame is None:
            frame = encode_frame(instr)
            if key is not None:
                frames[key] = frame
        body += frame[0]
        if params:
            if instr.opcode == "delay" and float(params[0]) != params[0]:
                raise BinaryFormatError(
                    f"instruction {k}: delay count {params[0]} does not fit a double exactly")
            pack = packers.get(len(params))
            if pack is None:
                pack = packers[len(params)] = struct.Struct(f"<{len(params)}d").pack
            body += pack(*params)
        body += frame[1]

    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<H", FORMAT_VERSION)
    _write_uvarint(buf, len(strings))
    for s in strings:
        raw = s.encode("utf-8")
        _write_uvarint(buf, len(raw))
        buf += raw
    _write_uvarint(buf, len(circuit.registers))
    for reg in circuit.registers:
        _write_uvarint(buf, index[reg.name])
        buf.append(0 if reg.kind == "q" else 1)
        _write_uvarint(buf, reg.size)
    _write_uvarint(buf, len(circuit.instructions))
    buf += body
    return bytes(buf)


# -- decoding ------------------------------------------------------------------
#
# Field names for error messages are templates over the instruction number
# {k}, formatted only when an error is raised.

def _truncated(what: str, k: int, off: int) -> BinaryFormatError:
    return BinaryFormatError(f"truncated stream: {what.format(k=k)} at byte {off}")


def _uvarint(data: bytes, off: int, what: str, k: int = 0) -> tuple[int, int]:
    """The LEB128 varint at ``off`` and the offset past it."""
    result = 0
    shift = 0
    end = len(data)
    while True:
        if off >= end:
            raise _truncated(what, k, off)
        byte = data[off]
        off += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, off
        shift += 7
        if shift > 63:
            raise BinaryFormatError(
                f"varint overflow reading {what.format(k=k)} at byte {off}"
            )


def _take(data: bytes, off: int, n: int, what: str, k: int = 0) -> tuple[bytes, int]:
    if off + n > len(data):
        raise _truncated(what, k, off)
    return data[off : off + n], off + n


def _check_params(data: bytes, off: int, n_params: int, k: int):
    """Raise for the first parameter, in order, that runs past the end of
    the stream or is not finite."""
    for pos in range(off, off + 8 * n_params, 8):
        if pos + 8 > len(data):
            raise _truncated("instruction {k} param", k, pos)
        (value,) = struct.unpack_from("<d", data, pos)
        if not math.isfinite(value):
            raise BinaryFormatError(f"non-finite instruction {k} param {value} at byte {pos}")


def _operand(registers: list, ridx: int, wire: int) -> tuple:
    if ridx >= len(registers):
        raise BinaryFormatError(f"register index {ridx} out of range")
    return (registers[ridx].name, wire)


def _read_operands(
    data: bytes, off: int, count: int, registers: list, seen: dict
) -> tuple[tuple, int]:
    """``count`` (register, wire) operands from ``off``. ``seen`` maps the
    two bytes of an operand whose register and wire indices are one-byte
    varints to the operand they were read as."""
    end = len(data)
    ops = []
    for _ in range(count):
        if off + 1 < end:
            ridx = data[off]
            wire = data[off + 1]
            if ridx < 0x80 and wire < 0x80:
                key = ridx << 7 | wire
                op = seen.get(key)
                if op is None:
                    op = seen[key] = _operand(registers, ridx, wire)
                ops.append(op)
                off += 2
                continue
        ridx, off = _uvarint(data, off, "operand register index")
        wire, off = _uvarint(data, off, "operand wire index")
        ops.append(_operand(registers, ridx, wire))
    return tuple(ops), off


def decode_binary(data: bytes) -> Circuit:
    """Parse an NWQB byte stream back into a circuit.

    Validates the magic, version, and every string-table and register
    index, then each instruction (``Circuit.resolve``); truncation errors
    report the failing byte offset. ``data`` is bytes, a bytearray or a
    memoryview; anything else raises BinaryFormatError.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise BinaryFormatError(f"NWQB data must be bytes-like, got {type(data).__name__}")
    data = bytes(data)  # a bytes input is not copied
    end = len(data)
    magic, off = _take(data, 0, 4, "magic")
    if magic != MAGIC:
        raise BinaryFormatError(f"bad magic {magic.hex()} (want {MAGIC.hex()})")
    raw, off = _take(data, off, 2, "version")
    version = struct.unpack("<H", raw)[0]
    if version != FORMAT_VERSION:
        raise BinaryFormatError(f"unsupported format version {version}")

    n_strings, off = _uvarint(data, off, "string table count")
    strings = []
    for k in range(n_strings):
        length, off = _uvarint(data, off, "string {k} length", k)
        raw, off = _take(data, off, length, "string {k}", k)
        try:
            strings.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise BinaryFormatError(f"string {k} is not valid UTF-8: {exc}") from None

    n_regs, off = _uvarint(data, off, "register count")
    registers = []
    for k in range(n_regs):
        idx, off = _uvarint(data, off, "register {k} name", k)
        if idx >= len(strings):
            raise BinaryFormatError(f"string-table index {idx} out of range for register {k}")
        name = strings[idx]
        raw, off = _take(data, off, 1, "register {k} kind", k)
        size, off = _uvarint(data, off, "register {k} size", k)
        registers.append(Register(name, {0: "q", 1: "c"}.get(raw[0], raw[0]), size))

    unpackers: dict[int, object] = {}
    seen: dict[int, tuple] = {}
    records: dict[bytes, Instruction] | None = {}
    span = [0] * 256  # by first byte: the length of the last record read with it
    isfinite = math.isfinite
    n_instrs, off = _uvarint(data, off, "instruction count")
    instructions = []
    for k in range(n_instrs):
        if records is not None:
            try:
                record = data[off : off + span[data[off]]]
            except IndexError:  # the stream ends here
                record = b""
            instr = records.get(record)
            if instr is not None:
                instructions.append(instr)
                off += len(record)
                continue

        start = off
        if off < end and data[off] < 0x80:
            idx = data[off]
            off += 1
        else:
            idx, off = _uvarint(data, off, "instruction {k} opcode", k)
        if idx >= len(strings):
            raise BinaryFormatError(f"string-table index {idx} out of range for instruction {k}")
        opcode = strings[idx]

        if off >= end:
            raise _truncated("instruction {k} flags", k, off)
        flags = data[off]
        off += 1

        if off < end and data[off] < 0x80:
            n_params = data[off]
            off += 1
        else:
            n_params, off = _uvarint(data, off, "instruction {k} param count", k)
        if n_params:
            params_end = off + 8 * n_params
            if params_end > end:
                _check_params(data, off, n_params, k)
            unpack = unpackers.get(n_params)
            if unpack is None:
                unpack = unpackers[n_params] = struct.Struct(f"<{n_params}d").unpack_from
            params = unpack(data, off)
            if not all(map(isfinite, params)):
                _check_params(data, off, n_params, k)
            off = params_end
        else:
            params = ()
        if opcode == "delay" and n_params == 1 and params[0].is_integer():
            params = (int(params[0]),)

        if off < end and data[off] < 0x80:
            count = data[off]
            off += 1
        else:
            count, off = _uvarint(data, off, "instruction {k} qubit count", k)
        qubits, off = _read_operands(data, off, count, registers, seen)
        if off < end and data[off] < 0x80:
            count = data[off]
            off += 1
        else:
            count, off = _uvarint(data, off, "instruction {k} clbit count", k)
        if count:
            clbits, off = _read_operands(data, off, count, registers, seen)
        else:
            clbits = ()

        condition = None
        if flags & 1:
            cidx, off = _uvarint(data, off, "instruction {k} condition register", k)
            if cidx >= len(registers):
                raise BinaryFormatError(f"instruction {k}: condition register index {cidx} invalid")
            value, off = _uvarint(data, off, "instruction {k} condition value", k)
            condition = (registers[cidx].name, value)
        instr = Instruction(opcode, params, qubits, clbits, condition)
        instructions.append(instr)
        if records is not None:
            if len(record) != off - start:
                record = data[start:off]
                span[record[0]] = len(record)
            records[record] = instr
            if len(records) > _MEMO_FLOOR + k // 2:
                records = None

    if off != end:
        raise BinaryFormatError(f"{end - off} trailing byte(s) at byte {off}")
    circuit = Circuit(registers=tuple(registers), instructions=tuple(instructions))
    try:
        circuit.resolve()
    except QasmError as exc:
        raise BinaryFormatError(str(exc)) from None
    return circuit
